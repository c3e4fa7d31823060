//! # dynprof-dpcl — the Dynamic Probe Class Library analogue
//!
//! The asynchronous daemon infrastructure dynprof instruments through
//! (paper §3.2, Fig 5): one **super daemon** per node authenticates users
//! and spawns per-user **communication daemons**, which attach to target
//! processes and perform the actual image patching. Every message between
//! the instrumenter and a daemon experiences a per-node delay with jitter,
//! reproducing the asynchrony that forces dynprof's barrier/spin-wait
//! startup protocol (paper Fig 6) and the growth of instrumentation time
//! with process count (Fig 9).
//!
//! ```
//! use dynprof_dpcl::{DpclClient, DpclSystem};
//! use dynprof_image::{FunctionInfo, ImageBuilder, ProbePoint, Snippet};
//! use dynprof_sim::{Machine, Sim};
//! use std::sync::Arc;
//!
//! let sim = Sim::virtual_time(Machine::test_machine(), 9);
//! let system = DpclSystem::new(["alice"]);
//! let mut b = ImageBuilder::new("target");
//! let f = b.add(FunctionInfo::new("test"));
//! let image = Arc::new(b.build());
//! let img2 = Arc::clone(&image);
//! sim.spawn("instrumenter", 0, move |p| {
//!     let client = DpclClient::new(system, "alice");
//!     let h = client.attach(p, 2, img2, "target:0").expect("attach");
//!     let req = client.install_probe(p, &h, ProbePoint::entry(f),
//!         Snippet::noop("start_timer"));
//!     assert!(client.wait_ack(p, req).is_ok());
//!     client.shutdown(p);
//! });
//! sim.run();
//! assert!(image.occupied(ProbePoint::entry(f)));
//! ```

//!
//! ## Transactional epochs
//!
//! Multi-node instrumentation changes can run as a two-phase-commit
//! transaction ([`InstrumentationTxn`]): stage on every daemon's durable
//! [`ProbeJournal`], collect PREPARE votes under a deadline, then commit
//! unanimously or roll back — so no quiesce point ever observes a
//! partially-instrumented job even under daemon crashes. A
//! [`HeartbeatMonitor`] classifies nodes `Alive → Suspect → Dead` from
//! missed super-daemon pings, and the [`DegradedPolicy`] knob chooses
//! between aborting and excluding failed nodes.

#![warn(missing_docs)]

mod client;
mod daemon;
mod heartbeat;
mod journal;
mod messages;
mod txn;

pub use client::{
    BackoffSchedule, CallbackSender, DpclClient, DpclError, ProcessHandle, CLIENT_SEND_COST,
};
pub use daemon::{
    DpclSystem, AUTH_COST, DAEMON_RESTART_COST, JOURNAL_REPLAY_COST, JOURNAL_WRITE_COST,
    RESTART_REPLAY_COST, SPAWN_DAEMON_COST,
};
pub use heartbeat::{HeartbeatConfig, HeartbeatMonitor, NodeHealth};
pub use journal::{JournalEntry, ProbeJournal, TxnPhase};
pub use messages::{AckResult, DownMsgEnvelope, ReqId, TargetId, TxnId, UpMsg};
pub use txn::{DegradedPolicy, InstrumentationTxn, TxnOptions, TxnOutcome, TxnReport};

#[cfg(test)]
mod tests {
    use super::*;
    use dynprof_image::{CallerCtx, FunctionInfo, ImageBuilder, ProbePoint, Snippet};
    use dynprof_sim::{Machine, Sim, SimTime};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn image_with(names: &[&str]) -> Arc<dynprof_image::Image> {
        let mut b = ImageBuilder::new("target");
        for n in names {
            b.add(FunctionInfo::new(*n));
        }
        Arc::new(b.build())
    }

    #[test]
    fn attach_install_and_fire() {
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        let system = DpclSystem::new(["u"]);
        let image = image_with(&["test"]);
        let f = image.func("test").unwrap();
        let fired = Arc::new(Mutex::new(0u32));

        let (img2, fired2) = (Arc::clone(&image), Arc::clone(&fired));
        sim.spawn("instrumenter", 0, move |p| {
            let client = DpclClient::new(system, "u");
            let h = client.attach(p, 1, Arc::clone(&img2), "t:0").unwrap();
            let f2 = Arc::clone(&fired2);
            let probe = Snippet::new("probe", SimTime::ZERO, move |_| {
                *f2.lock() += 1;
            });
            let req = client.install_probe(p, &h, ProbePoint::entry(f), probe);
            assert!(client.wait_ack(p, req).is_ok());
            client.shutdown(p);
        });
        let img3 = Arc::clone(&image);
        sim.spawn("app", 1, move |p| {
            // Give the instrumenter time to patch, then call.
            p.sleep(SimTime::from_secs(1));
            img3.call(p, CallerCtx::default(), f, || ());
        });
        sim.run();
        assert_eq!(*fired.lock(), 1);
    }

    #[test]
    fn authentication_rejects_unknown_users() {
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        let system = DpclSystem::new(["alice"]);
        let image = image_with(&["f"]);
        sim.spawn("instrumenter", 0, move |p| {
            let client = DpclClient::new(system, "mallory");
            let err = client.attach(p, 1, image, "t").unwrap_err();
            assert!(
                matches!(&err, DpclError::Rejected(m) if m.contains("not authorized")),
                "{err}"
            );
            client.shutdown(p);
        });
        sim.run();
    }

    #[test]
    fn one_super_daemon_per_node() {
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        let system = DpclSystem::new(["u"]);
        let sys2 = Arc::clone(&system);
        sim.spawn("instrumenter", 0, move |p| {
            let client = DpclClient::new(Arc::clone(&sys2), "u");
            for node in [1, 2, 1, 2, 3] {
                client.connect(p, node).unwrap();
            }
            assert_eq!(sys2.super_daemon_count(), 3);
            assert_eq!(client.connected_nodes(), vec![1, 2, 3]);
            client.shutdown(p);
        });
        sim.run();
    }

    #[test]
    fn async_installs_complete_on_every_node() {
        let sim = Sim::virtual_time(Machine::test_machine(), 42);
        let system = DpclSystem::new(["u"]);
        let images: Vec<_> = (0..3).map(|_| image_with(&["test"])).collect();
        let imgs = images.clone();
        sim.spawn("instrumenter", 0, move |p| {
            let client = DpclClient::new(system, "u");
            let mut handles = Vec::new();
            for (i, img) in imgs.iter().enumerate() {
                handles.push(client.attach(p, 1 + i, Arc::clone(img), "t").unwrap());
            }
            let f = imgs[0].func("test").unwrap();
            let reqs: Vec<_> = handles
                .iter()
                .map(|h| client.install_probe(p, h, ProbePoint::entry(f), Snippet::noop("n")))
                .collect();
            for (req, r) in client.wait_all(p, &reqs) {
                assert!(r.is_ok(), "{req:?}: {r:?}");
            }
            client.shutdown(p);
        });
        sim.run();
        for img in &images {
            assert!(img.occupied(ProbePoint::entry(img.func("test").unwrap())));
        }
    }

    #[test]
    fn bsuspend_blocks_until_daemon_confirms() {
        let sim = Sim::virtual_time(Machine::test_machine(), 5);
        let system = DpclSystem::new(["u"]);
        let image = image_with(&["f"]);
        let img2 = Arc::clone(&image);
        sim.spawn("instrumenter", 0, move |p| {
            let client = DpclClient::new(system, "u");
            let h = client.attach(p, 2, Arc::clone(&img2), "t").unwrap();
            assert!(!img2.is_suspended());
            let r = client.bsuspend(p, &h);
            assert!(r.is_ok());
            assert!(img2.is_suspended());
            client.resume(p, &h);
            // Async resume: wait for it to land before shutdown.
            p.sleep(SimTime::from_secs(1));
            assert!(!img2.is_suspended());
            client.shutdown(p);
        });
        sim.run();
    }

    #[test]
    fn callbacks_reach_the_instrumenter() {
        let sim = Sim::virtual_time(Machine::test_machine(), 5);
        let system = DpclSystem::new(["u"]);
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = Arc::clone(&got);
        let sender_slot: Arc<Mutex<Option<CallbackSender>>> = Arc::new(Mutex::new(None));
        let slot2 = Arc::clone(&sender_slot);
        sim.spawn("instrumenter", 0, move |p| {
            let client = DpclClient::new(system, "u");
            *slot2.lock() = Some(client.callback_sender());
            let mut payloads = client.recv_callbacks(p, 7, 3);
            payloads.sort_unstable();
            *got2.lock() = payloads;
            client.shutdown(p);
        });
        for rank in 0..3u64 {
            let slot = Arc::clone(&sender_slot);
            sim.spawn(format!("app:{rank}"), 1, move |p| {
                p.sleep(SimTime::from_millis(10 * (rank + 1)));
                let sender = slot.lock().clone().expect("sender published");
                sender.send(p, 7, rank);
            });
        }
        sim.run();
        assert_eq!(*got.lock(), vec![0, 1, 2]);
    }

    /// A removal clears both points, whether sent as a request or staged
    /// and committed as a 2PC epoch.
    #[test]
    fn remove_function_clears_probes_via_daemon() {
        let sim = Sim::virtual_time(Machine::test_machine(), 5);
        let system = DpclSystem::new(["u"]);
        let images = [image_with(&["f"]), image_with(&["f"])];
        let f = images[0].func("f").unwrap();
        for image in &images {
            for point in [ProbePoint::entry(f), ProbePoint::exit(f)] {
                image
                    .try_insert(point, Snippet::noop("p"))
                    .expect("patchable target");
            }
        }
        let imgs = images.clone();
        sim.spawn("instrumenter", 0, move |p| {
            let client = DpclClient::new(system, "u");
            let h = client.attach(p, 1, Arc::clone(&imgs[0]), "t:0").unwrap();
            let req = client.remove_function(p, &h, f);
            assert_eq!(client.wait_ack(p, req), AckResult::Ok { detail: 2 });
            let h = client.attach(p, 2, Arc::clone(&imgs[1]), "t:1").unwrap();
            let mut txn = InstrumentationTxn::new(TxnOptions::default());
            txn.stage_remove(&h, f);
            let r = txn.execute(p, &client, None, None);
            assert_eq!((r.outcome, r.applied), (TxnOutcome::Committed, 1));
            client.shutdown(p);
        });
        sim.run();
        for image in &images {
            assert!(!image.occupied(ProbePoint::entry(f)));
            assert!(!image.occupied(ProbePoint::exit(f)));
        }
    }

    #[test]
    fn operations_on_unattached_target_error() {
        let sim = Sim::virtual_time(Machine::test_machine(), 5);
        let system = DpclSystem::new(["u"]);
        let image = image_with(&["f"]);
        let f = image.func("f").unwrap();
        sim.spawn("instrumenter", 0, move |p| {
            let client = DpclClient::new(system, "u");
            let h = client.attach(p, 1, Arc::clone(&image), "t").unwrap();
            // Forge a handle with a bogus target id.
            let bogus = ProcessHandle {
                target: crate::TargetId(999),
                ..h.clone()
            };
            let req = client.install_probe(p, &bogus, ProbePoint::entry(f), Snippet::noop("n"));
            let r = client.wait_ack(p, req);
            assert!(
                matches!(&r, AckResult::Error { message } if message.contains("no attached target")),
                "{r:?}"
            );
            client.shutdown(p);
        });
        sim.run();
    }

    #[test]
    fn daemon_rejects_unverifiable_snippet_program() {
        use dynprof_image::ir::{IntrinsicTable, SnippetProgram};
        let sim = Sim::virtual_time(Machine::test_machine(), 5);
        let system = DpclSystem::new(["u"]);
        let image = image_with(&["f"]);
        let f = image.func("f").unwrap();
        let img2 = Arc::clone(&image);
        sim.spawn("instrumenter", 0, move |p| {
            let client = DpclClient::new(system, "u");
            let h = client.attach(p, 1, Arc::clone(&img2), "t").unwrap();
            // A call outside an empty table. Lowered without client-side
            // checking, so the daemon must catch it.
            let bad =
                SnippetProgram::new("rogue", vec![7], IntrinsicTable::empty()).compile_unchecked();
            let req = client.install_probe(p, &h, ProbePoint::entry(f), bad);
            let r = client.wait_ack(p, req);
            assert!(
                matches!(&r, AckResult::Error { message }
                    if message == "snippet \"rogue\" rejected: call to unknown intrinsic #7"),
                "{r:?}"
            );
            client.shutdown(p);
        });
        sim.run();
        assert!(!image.occupied(ProbePoint::entry(f)), "nothing installed");
    }

    /// Every install is checked, before a daemon's crash window and after
    /// the restart that ends it.
    #[test]
    fn daemon_verifies_a_program_once_and_again_after_a_restart() {
        use dynprof_image::ir::{IntrinsicTable, SnippetProgram};
        use dynprof_sim::{FaultPlan, FaultProfile, FaultSpec};
        // Every node's daemons crash once, for 40 ms, somewhere in the
        // first two seconds; take a plan that lets node 1 be attached to
        // first.
        let spec = |seed| FaultSpec {
            seed,
            profile_name: "crash-all".into(),
            profile: FaultProfile {
                crash_node_ppm: 1_000_000,
                crash_start_max: SimTime::from_secs(2),
                crash_downtime: SimTime::from_millis(40),
                ..FaultProfile::none()
            },
        };
        let machine = Machine::test_machine();
        let (seed, (start, end)) = (0..64)
            .find_map(|seed| {
                let window = FaultPlan::new(&spec(seed), &machine).daemon_outage(1)?;
                (window.0 >= SimTime::from_millis(500)).then_some((seed, window))
            })
            .expect("some plan crashes node 1 late enough");
        let sim = Sim::virtual_time(machine, 5);
        assert!(sim.set_fault_plan(FaultPlan::new(&spec(seed), sim.machine())));
        let system = DpclSystem::new(["u"]);
        let image = image_with(&["f"]);
        let f = image.func("f").unwrap();
        let img2 = Arc::clone(&image);
        sim.spawn("instrumenter", 0, move |p| {
            let client = DpclClient::new(system, "u");
            let h = client.attach(p, 1, Arc::clone(&img2), "t").unwrap();
            let install = |s: Snippet| {
                let req = client.install_probe(p, &h, ProbePoint::entry(f), s);
                client.wait_ack(p, req)
            };
            let bad =
                SnippetProgram::new("rogue", vec![7], IntrinsicTable::empty()).compile_unchecked();
            let rejected = |r: AckResult| {
                assert!(
                    matches!(&r, AckResult::Error { message } if message.contains("unknown intrinsic #7")),
                    "{r:?}"
                );
            };
            for _ in 0..3 {
                rejected(install(bad.clone()));
            }
            assert!(p.now() < start, "all of that before the crash");
            p.sleep_until(end + SimTime::from_millis(1));
            // The first request after the window restarts the daemon.
            assert!(install(Snippet::noop("fine")).is_ok());
            rejected(install(bad.clone()));
            client.shutdown(p);
        });
        sim.run();
        assert_eq!(
            image.allocated_trampoline_bytes(),
            dynprof_image::BASE_TRAMPOLINE_BYTES + dynprof_image::MINI_TRAMPOLINE_BYTES,
            "only the no-op went in"
        );
    }

    #[test]
    fn txn_prepare_votes_abort_on_branch_into_patch_hazard() {
        use dynprof_image::BasicBlock;

        let sim = Sim::virtual_time(Machine::test_machine(), 3);
        let system = DpclSystem::new(["u"]);
        let mut b = ImageBuilder::new("target");
        let f = b.add(FunctionInfo::new("f").with_blocks(vec![
            BasicBlock::new(0, vec![64]),
            BasicBlock::new(64, vec![4]), // target 4 is inside the patch
        ]));
        let image = Arc::new(b.build());
        let report = Arc::new(Mutex::new(None));
        let (img2, report2) = (Arc::clone(&image), Arc::clone(&report));
        sim.spawn("instrumenter", 0, move |p| {
            let client = DpclClient::new(system, "u");
            let h = client.attach(p, 1, Arc::clone(&img2), "t").unwrap();
            let mut txn = InstrumentationTxn::new(TxnOptions::default());
            txn.stage_install(&h, ProbePoint::entry(f), Snippet::noop("n"));
            *report2.lock() = Some(txn.execute(p, &client, None, None));
            client.shutdown(p);
        });
        sim.run();
        let r = report.lock().take().unwrap();
        assert!(
            matches!(&r.outcome, TxnOutcome::Aborted { reason } if reason.contains("branch-into-patch")),
            "{:?}",
            r.outcome
        );
        assert!(!image.occupied(ProbePoint::entry(f)), "rolled back");
    }

    #[test]
    fn determinism_identical_seeds_identical_completion() {
        fn run(seed: u64) -> SimTime {
            let sim = Sim::virtual_time(Machine::test_machine(), seed);
            let system = DpclSystem::new(["u"]);
            let image = image_with(&["f"]);
            let f = image.func("f").unwrap();
            sim.spawn("instrumenter", 0, move |p| {
                let client = DpclClient::new(system, "u");
                let mut reqs = Vec::new();
                let mut handles = Vec::new();
                for node in 1..4 {
                    handles.push(client.attach(p, node, Arc::clone(&image), "t").unwrap());
                }
                for h in &handles {
                    reqs.push(client.install_probe(p, h, ProbePoint::entry(f), Snippet::noop("n")));
                }
                assert!(client.wait_all(p, &reqs).iter().all(|(_, r)| r.is_ok()));
                client.shutdown(p);
            });
            sim.run()
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
