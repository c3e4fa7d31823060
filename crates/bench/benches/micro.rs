//! Micro-benchmarks of the instrumentation fast paths.
//!
//! The paper's results rest on a cost hierarchy: absent probes are free,
//! deactivated probes pay a table lookup, active probes pay timestamp +
//! event append, dynamic probes add trampoline dispatch. The figure
//! harnesses *model* those costs on the virtual clock; these benchmarks
//! *measure* the host time of the real Rust implementations running on
//! that same clock — the one every session runs on — validating that
//! the implementation itself exhibits the hierarchy — including the
//! observability layer's own hierarchy (a disabled `obs` site costs one
//! relaxed load + branch).
//!
//! The harness is self-contained (no external bench framework is
//! available in this build environment): each case is auto-calibrated so
//! one sample lasts ≥ ~10 ms, five samples are taken, and the best is
//! reported, criterion-style.
//!
//! Allocation counts and live heap bytes are not measured here: they are
//! exact, so they are pinned as Tier-1 tests in `tests/footprint.rs`,
//! which owns the workspace's one counting allocator. This binary runs on
//! the system allocator, and what it times pays no bookkeeping.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dynprof_image::{CallerCtx, FunctionInfo, ImageBuilder, ProbePoint};
use dynprof_obs as obs;
use dynprof_sim::{hb, Machine, ProbeCosts, Proc, Sim, SimTime};
use dynprof_vt::{vt_begin_snippet, vt_end_snippet, Trace, VtConfig, VtLib};

/// Run one benchmark: `f(iters)` must perform `iters` iterations and
/// return the time they took. Calibrates `iters`, samples five times, and
/// prints the best sample as ns/iter.
fn bench(name: &str, mut f: impl FnMut(u64) -> Duration) {
    let mut iters = 1u64;
    loop {
        let d = f(iters);
        if d >= Duration::from_millis(10) || iters >= 1 << 30 {
            break;
        }
        let target = Duration::from_millis(12).as_nanos() as f64;
        let scale = (target / d.as_nanos().max(1) as f64).max(2.0);
        iters = ((iters as f64) * scale.min(1e4)).ceil() as u64;
    }
    let best = (0..5).map(|_| f(iters)).min().expect("five samples");
    let ns_per_iter = best.as_nanos() as f64 / iters as f64;
    println!("{name:<34} {ns_per_iter:>12.1} ns/iter   ({iters} iters)");
}

/// A timestamp and a charge on the virtual clock: what every simulated
/// probe pays, several times over, in host time.
fn bench_clock() {
    bench("sim/now", |iters| {
        in_virtual_proc(move |p| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(p.now());
            }
            t.elapsed()
        })
    });
    bench("sim/advance", |iters| {
        in_virtual_proc(move |p| {
            let t = Instant::now();
            for _ in 0..iters {
                p.advance(black_box(SimTime::from_nanos(1)));
            }
            t.elapsed()
        })
    });
}

fn bench_obs_primitives() {
    // The branch every instrumented layer pays when observation is off:
    // a relaxed atomic load + test. This is the whole disabled-obs cost.
    bench("obs/enabled_check_disabled", |iters| {
        obs::set_enabled(false);
        let t = Instant::now();
        for _ in 0..iters {
            if black_box(obs::enabled()) {
                obs::counter("bench.micro.never").inc();
            }
        }
        t.elapsed()
    });
    bench("obs/counter_add_enabled", |iters| {
        obs::set_enabled(true);
        let c = obs::counter("bench.micro.counter");
        let t = Instant::now();
        for _ in 0..iters {
            if obs::enabled() {
                c.add(black_box(1));
            }
        }
        let d = t.elapsed();
        obs::set_enabled(false);
        d
    });
}

/// Run `f` inside a simulated process and return the host duration it
/// measured (setup excluded).
fn in_virtual_proc(f: impl FnOnce(&Proc) -> Duration + Send + 'static) -> Duration {
    let out = Arc::new(Mutex::new(Duration::ZERO));
    let out2 = Arc::clone(&out);
    let sim = Sim::virtual_time(Machine::test_machine(), 1);
    sim.spawn("bench", 0, move |p| {
        *out2.lock() = f(p);
    });
    sim.run();
    let d = *out.lock();
    d
}

/// Two processes ping-ponging 500 rounds through a pair of channels, with
/// happens-before checking optionally armed: unarmed it is the engine's
/// handoff cost (`des/pingpong_1k`), and the on/off delta is the runtime
/// cost of vector-clock recording per channel operation.
fn check_pingpong(iters: u64, check_on: bool) -> Duration {
    let t = Instant::now();
    for _ in 0..iters {
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        if check_on {
            sim.enable_check();
        }
        let ch_a: Arc<dynprof_sim::sync::SimChannel<u32>> =
            Arc::new(dynprof_sim::sync::SimChannel::new());
        let ch_b: Arc<dynprof_sim::sync::SimChannel<u32>> =
            Arc::new(dynprof_sim::sync::SimChannel::new());
        let (a1, b1) = (Arc::clone(&ch_a), Arc::clone(&ch_b));
        sim.spawn("ping", 0, move |p| {
            for i in 0..500u32 {
                a1.send(p, i, SimTime::from_micros(1));
                let _ = b1.recv(p);
            }
        });
        let (a2, b2) = (ch_a, ch_b);
        sim.spawn("pong", 1, move |p| {
            for _ in 0..500u32 {
                let v = a2.recv(p);
                b2.send(p, v, SimTime::from_micros(1));
            }
        });
        black_box(sim.run());
    }
    t.elapsed()
}

fn bench_check_primitives() {
    // What a recording site costs in a run `enable_check` did not arm:
    // one branch on the run's recorder handle (every sync primitive pays
    // it per operation).
    bench("check/gate_runtime_off", |iters| {
        in_virtual_proc(move |p| {
            let t = Instant::now();
            for i in 0..iters {
                hb::chan_send(p, 0, black_box(i));
            }
            t.elapsed()
        })
    });
    // 1000 channel ops per sim: the on/off delta is vector-clock cost.
    bench("check/pingpong_1k_off", |iters| {
        check_pingpong(iters, false)
    });
    bench("check/pingpong_1k_on", |iters| check_pingpong(iters, true));
}

fn bench_vt_fast_paths() {
    bench("vt/begin_end_active", |iters| {
        in_virtual_proc(move |p| {
            let vt = VtLib::new("b", 1, VtConfig::all_on(), ProbeCosts::power3());
            vt.init(p, 0);
            let f = vt.funcdef(p, "hot");
            let t = Instant::now();
            for _ in 0..iters {
                vt.begin(p, 0, 0, f, 1);
                vt.end(p, 0, 0, f);
            }
            t.elapsed()
        })
    });
    bench("vt/begin_end_deactivated", |iters| {
        in_virtual_proc(move |p| {
            let vt = VtLib::new("b", 1, VtConfig::all_off(), ProbeCosts::power3());
            vt.init(p, 0);
            let f = vt.funcdef(p, "cold");
            let t = Instant::now();
            for _ in 0..iters {
                vt.begin(p, 0, 0, f, 1);
                vt.end(p, 0, 0, f);
            }
            t.elapsed()
        })
    });
    // One recorded event (half a begin/end pair): buffered in the library,
    // captured live through a store writer's lane, and through the pair
    // `dynprof trace=` installs (store + summary profile). The delta to
    // `vt/record` is what capturing an event costs on the spot instead of
    // after the run.
    for (name, sink) in [
        ("vt/record", None),
        ("vt/record_to_store", Some(false)),
        ("vt/record_captured", Some(true)),
    ] {
        bench(name, |iters| {
            in_virtual_proc(move |p| {
                let vt = VtLib::new("b", 1, VtConfig::all_on(), ProbeCosts::power3());
                match sink {
                    None => {}
                    Some(false) => vt.set_sink(store_slot(2048)),
                    Some(true) => vt.set_sink(capture_slot()),
                }
                vt.init(p, 0);
                let f = vt.funcdef(p, "hot");
                let t = Instant::now();
                for _ in 0..iters.div_ceil(2) {
                    vt.begin(p, 0, 0, f, 1);
                    vt.end(p, 0, 0, f);
                }
                let d = t.elapsed();
                vt.close_lanes();
                d
            })
        });
    }
    // Same active path with runtime observation on: the delta against
    // vt/begin_end_active is the cost of live metric updates.
    bench("vt/begin_end_active_obs_on", |iters| {
        in_virtual_proc(move |p| {
            obs::set_enabled(true);
            let vt = VtLib::new("b", 1, VtConfig::all_on(), ProbeCosts::power3());
            vt.init(p, 0);
            let f = vt.funcdef(p, "hot");
            let t = Instant::now();
            for _ in 0..iters {
                vt.begin(p, 0, 0, f, 1);
                vt.end(p, 0, 0, f);
            }
            let d = t.elapsed();
            obs::set_enabled(false);
            d
        })
    });
}

fn bench_image_call() {
    bench("image/call_unprobed", |iters| {
        in_virtual_proc(move |p| {
            let mut bld = ImageBuilder::new("b");
            let f = bld.add(FunctionInfo::new("f"));
            let img = bld.build();
            let t = Instant::now();
            for _ in 0..iters {
                img.call(p, CallerCtx::default(), f, || black_box(1));
            }
            t.elapsed()
        })
    });
    // A statically instrumented call whose hooks do nothing: what the
    // call path itself pays to reach them.
    bench("image/call_static_hooked", |iters| {
        struct Nop;
        impl dynprof_image::StaticHooks for Nop {
            fn begin(&self, ctx: &dynprof_image::ProbeCtx<'_>) {
                black_box(ctx.reps);
            }
            fn end(&self, ctx: &dynprof_image::ProbeCtx<'_>) {
                black_box(ctx.reps);
            }
        }
        in_virtual_proc(move |p| {
            let mut bld = ImageBuilder::new("b");
            let f = bld.add(FunctionInfo::new("f").static_instr(true));
            let img = bld.build();
            img.set_static_hooks(Arc::new(Nop));
            let t = Instant::now();
            for _ in 0..iters {
                img.call(p, CallerCtx::default(), f, || black_box(1));
            }
            t.elapsed()
        })
    });
    bench("image/call_trampolined_vt", |iters| {
        in_virtual_proc(move |p| {
            let mut bld = ImageBuilder::new("b");
            let f = bld.add(FunctionInfo::new("f"));
            let img = bld.build();
            let vt = VtLib::new("b", 1, VtConfig::all_on(), ProbeCosts::power3());
            vt.init(p, 0);
            let id = vt.funcdef(p, "f");
            img.try_insert(ProbePoint::entry(f), vt_begin_snippet(Arc::clone(&vt), id))
                .expect("patchable target");
            img.try_insert(ProbePoint::exit(f), vt_end_snippet(Arc::clone(&vt), id))
                .expect("patchable target");
            let t = Instant::now();
            for _ in 0..iters {
                img.call(p, CallerCtx::default(), f, || black_box(1));
            }
            t.elapsed()
        })
    });
}

fn bench_verifier() {
    // The program every dynprof entry probe carries: one call to the
    // `VT_begin` intrinsic, checked against its table at each install.
    let vt = VtLib::new("b", 1, VtConfig::all_on(), ProbeCosts::power3());
    let prog = Arc::clone(&vt_begin_snippet(vt, dynprof_vt::VtFuncId(0)).program);
    assert!(prog.verify().is_ok(), "bench program must verify");
    bench("verify/snippet_program", |iters| {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(black_box(&prog).verify()).ok();
        }
        t.elapsed()
    });
}

/// The store's CRC bill: appending a 10k-event trace through the full
/// chunked writer (encode + checksum + buffered I/O to memory) next to
/// the raw CRC-32 pass over the same bytes. The checksum must stay a
/// small fraction of the pipeline it protects.
fn bench_store_crc() {
    use std::io::Cursor;

    use dynprof_analysis::store::{crc32, StoreOptions, StoreWriter};

    let trace = {
        let mut events = Vec::new();
        for i in 0..10_000u64 {
            events.push(dynprof_vt::Event::FuncEnter {
                t: SimTime::from_nanos(i * 100),
                rank: (i % 64) as u32,
                thread: 0,
                func: dynprof_vt::VtFuncId((i % 199) as u32),
            });
        }
        Trace {
            program: "bench".into(),
            functions: (0..199).map(|i| format!("fn_{i}")).collect(),
            events,
        }
    };
    let write_once = |trace: &Trace| {
        let mut w = StoreWriter::new(
            Cursor::new(Vec::new()),
            trace.program.clone(),
            StoreOptions { chunk_events: 256 },
        )
        .expect("in-memory sink");
        w.set_functions(trace.functions.clone());
        for ev in &trace.events {
            w.append(ev);
        }
        black_box(w.finish().expect("in-memory finish"));
    };
    // The CRC pass runs over the store's actual bytes.
    let file = {
        let path =
            std::env::temp_dir().join(format!("dynprof-bench-crc-{}.vgvs", std::process::id()));
        dynprof_analysis::store::write_store_from_trace(
            &trace,
            &path,
            StoreOptions { chunk_events: 256 },
        )
        .expect("bench store");
        let bytes = std::fs::read(&path).expect("bench store bytes");
        std::fs::remove_file(&path).ok();
        bytes
    };

    // Paired minima: noise only ever inflates a slice, so each side's
    // minimum over interleaved slices is its least-noise estimate.
    let (mut append_ns, mut crc_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..30 {
        let t = Instant::now();
        write_once(black_box(&trace));
        append_ns = append_ns.min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        black_box(crc32(black_box(&file)));
        crc_ns = crc_ns.min(t.elapsed().as_nanos() as f64);
    }
    let overhead = crc_ns / append_ns;
    println!(
        "{:<34} {:>12.1} ns/iter   (crc32 pass {:.1} ns, {:.2}% of append)",
        "store/append_10k_events_crc",
        append_ns,
        crc_ns,
        overhead * 100.0
    );
    // Slice-by-8 runs at several GB/s; the whole store pipeline (delta
    // encode, varint, chunking, buffered writes) dwarfs it. Typical
    // measured share is well under 2%; 5% is the contract.
    let tolerance: f64 = std::env::var("STORE_CRC_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);
    assert!(
        overhead <= tolerance,
        "per-chunk CRC-32 costs {:.2}% of store append (tolerance {:.0}%; \
         override with STORE_CRC_TOLERANCE)",
        overhead * 100.0,
        tolerance * 100.0
    );
}

/// One event onto a rank's open chunk — delta, varints, envelope — the
/// whole of what a store lane does per event below its chunk size.
fn bench_stage_event() {
    use dynprof_analysis::store::ChunkBuf;
    use dynprof_vt::{Event, VtFuncId};

    bench("store/stage_event", |iters| {
        let mut stage = ChunkBuf::default();
        let t = Instant::now();
        for i in 0..iters {
            if stage.len() == 2048 {
                stage.clear();
            }
            black_box(stage.stage(black_box(&Event::FuncEnter {
                t: SimTime::from_nanos(i * 100),
                rank: 0,
                thread: 0,
                func: VtFuncId((i % 199) as u32),
            })));
        }
        t.elapsed()
    });
}

/// A 64-rank store of one full default-size chunk (2 048 events) a rank,
/// a third of them sends to the four neighbours of a 2-D stencil; removed
/// when dropped.
struct QueryStore {
    path: std::path::PathBuf,
    events: Vec<dynprof_vt::Event>,
}

impl QueryStore {
    const RANKS: u32 = 64;
    const CHUNK: u64 = 2048;

    fn create() -> QueryStore {
        use dynprof_analysis::store::{write_store_from_trace, StoreOptions};
        use dynprof_vt::{Event, VtFuncId};

        let mut events = Vec::new();
        for rank in 0..Self::RANKS {
            for i in 0..Self::CHUNK / 4 {
                let t = SimTime::from_nanos(i * 4_000);
                let func = VtFuncId((i % 21) as u32);
                let (thread, us) = (0, SimTime::from_micros);
                events.push(Event::FuncEnter {
                    t,
                    rank,
                    thread,
                    func,
                });
                events.push(Event::MpiCall {
                    t: t + us(1),
                    t_end: t + us(2),
                    rank,
                    op: 2,
                    peer: ((rank + [1, 8, 56, 63][(i % 4) as usize]) % Self::RANKS) as i32,
                    bytes: 4_096,
                });
                events.push(Event::FuncExit {
                    t: t + us(3),
                    rank,
                    thread,
                    func,
                });
                events.push(Event::MpiCall {
                    t: t + us(3),
                    t_end: t + us(4),
                    rank,
                    op: 7,
                    peer: -1,
                    bytes: 8,
                });
            }
        }
        let trace = Trace {
            program: "query".into(),
            functions: (0..21).map(|i| format!("fn_{i}")).collect(),
            events,
        };
        let path =
            std::env::temp_dir().join(format!("dynprof-bench-query-{}.vgvs", std::process::id()));
        let opts = StoreOptions {
            chunk_events: Self::CHUNK as usize,
        };
        let stats = write_store_from_trace(&trace, &path, opts).expect("bench store");
        assert_eq!(stats.chunks as u32, Self::RANKS, "one full chunk a rank");
        QueryStore {
            path,
            events: trace.events,
        }
    }
}

impl Drop for QueryStore {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// [`bench`] for work that comes `batch` operations at a time (a chunk of
/// events, a matrix of cells): whole batches run, one operation is
/// reported.
fn bench_batched(name: &str, batch: u64, mut run_batch: impl FnMut()) {
    bench(name, |iters| {
        let batches = iters.div_ceil(batch);
        let t = Instant::now();
        (0..batches).for_each(|_| run_batch());
        t.elapsed().mul_f64(iters as f64 / (batches * batch) as f64)
    });
}

/// The steps a `vgv` query is made of, each per unit of its work: the
/// verified read of a chunk (file read, CRC-32, decode) per event, the two
/// streaming builders per push, and the comm matrix per rendered cell.
fn bench_query_path() {
    use dynprof_analysis::store::StoreReader;
    use dynprof_analysis::{CommStats, TimelineBuilder, TimelineOptions};

    let store = QueryStore::create();
    let mut reader = StoreReader::open(&store.path).expect("bench store opens");
    let mut next = 0;
    bench_batched("analysis/decode_chunk", QueryStore::CHUNK, || {
        black_box(reader.chunk_events(next).expect("chunk verifies"));
        next = (next + 1) % QueryStore::RANKS as usize;
    });

    let events = &store.events;
    let end = events.iter().map(|ev| ev.time()).max().expect("events");
    let mut timeline = TimelineBuilder::new("q", SimTime::ZERO, end, TimelineOptions::default());
    bench_batched("analysis/timeline_push", events.len() as u64, || {
        events.iter().for_each(|ev| timeline.push(black_box(ev)));
    });
    black_box(timeline.finish());

    let mut comm = CommStats::default();
    bench_batched("analysis/comm_push", events.len() as u64, || {
        events.iter().for_each(|ev| comm.push(black_box(ev)));
    });

    let cells = u64::from(QueryStore::RANKS).pow(2);
    let mut rendered = Vec::new();
    bench_batched("analysis/matrix_cell", cells, || {
        rendered.clear();
        comm.write_matrix(&mut rendered).expect("in-memory write");
        black_box(&rendered);
    });
}

fn bench_config_resolve() {
    let mut cfg = VtConfig::all_off();
    for i in 0..60 {
        cfg.exact.insert(format!("hypre_SMG_{i}"), true);
    }
    cfg.prefixes.push(("hypre_Struct".into(), true));
    cfg.prefixes.push(("hypre_Box".into(), false));
    bench("config/resolve", |iters| {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(
                black_box(cfg.resolve("hypre_StructVectorSetConstantValues"))
                    | black_box(cfg.resolve("hypre_SMG_30"))
                    | black_box(cfg.resolve("unrelated_function")),
            );
        }
        t.elapsed()
    });
}

fn bench_des_engine() {
    // Virtual-mode event throughput: two processes ping-pong through a
    // channel; measures scheduler handoff cost per event.
    bench("des/pingpong_1k", |iters| check_pingpong(iters, false));
    // Allocation regression guard for the control-plane fast path: with
    // no fault plan installed, `send_ctl` must be exactly `send` — no
    // message clone, no RNG draw. The payload is a 64-byte boxed slice,
    // so reintroducing a speculative clone on the duplication path would
    // add a heap alloc + copy per send and show up here as a step change;
    // sync.rs's `send_ctl_never_clones_without_a_fault_plan` pins the
    // exact clone count to zero, and `tests/footprint.rs` the allocations.
    bench("des/send_ctl_nofault_1k", |iters| {
        let t = Instant::now();
        for _ in 0..iters {
            let sim = Sim::virtual_time(Machine::test_machine(), 1);
            let ch: Arc<dynprof_sim::sync::SimChannel<Box<[u8]>>> =
                Arc::new(dynprof_sim::sync::SimChannel::new());
            sim.spawn("solo", 0, move |p| {
                for _ in 0..1_000 {
                    ch.send_ctl(p, vec![0u8; 64].into_boxed_slice(), SimTime::ZERO);
                    black_box(ch.try_recv(p));
                }
            });
            black_box(sim.run());
        }
        t.elapsed()
    });
    bench_channel_backlog();
}

/// What a receive costs with other messages queued around the one it
/// wants (ns per send + receive). A round queues `backlog` messages and
/// then receives them all, so a receive meets half of them on average:
///
/// * `des/fifo_recv_backlog_*` — a FIFO channel drained from the front,
///   as a daemon drains its inbox: `recv`;
/// * `des/keyed_recv_backlog_*` — a keyed FIFO channel whose messages
///   arrive in the opposite order to the one they are asked for in, as
///   acks reach a client that waits for them request by request:
///   `recv_key_deadline`;
/// * `des/mpi_recv_match` — an unordered mailbox, depth 8, matched by
///   tag out of arrival order: `recv_match`.
///
/// The first two read the same at a backlog of 10 and of 1 000; before
/// the queue kept its order they grew with it.
fn bench_channel_backlog() {
    use dynprof_sim::sync::SimChannel;
    let far = SimTime::from_secs(3600);
    for backlog in [10u64, 1_000] {
        let name = format!(
            "des/fifo_recv_backlog_{}",
            if backlog == 10 { "10" } else { "1k" }
        );
        bench(&name, move |iters| {
            in_virtual_proc(move |p| {
                let ch: SimChannel<u64> = SimChannel::new_fifo();
                let rounds = iters.div_ceil(backlog);
                let t = Instant::now();
                for _ in 0..rounds {
                    for v in 0..backlog {
                        ch.send(p, v, SimTime::ZERO);
                    }
                    for _ in 0..backlog {
                        black_box(ch.recv(p));
                    }
                }
                t.elapsed() * iters as u32 / (rounds * backlog) as u32
            })
        });
        let name = format!(
            "des/keyed_recv_backlog_{}",
            if backlog == 10 { "10" } else { "1k" }
        );
        bench(&name, move |iters| {
            in_virtual_proc(move |p| {
                let ch: SimChannel<u64> = SimChannel::new_fifo_keyed(|&v| Some(v));
                let rounds = iters.div_ceil(backlog);
                let t = Instant::now();
                for _ in 0..rounds {
                    for v in (0..backlog).rev() {
                        ch.send(p, v, SimTime::ZERO);
                    }
                    for v in 0..backlog {
                        black_box(ch.recv_key_deadline(p, v, far));
                    }
                }
                t.elapsed() * iters as u32 / (rounds * backlog) as u32
            })
        });
    }
    bench("des/mpi_recv_match", |iters| {
        in_virtual_proc(move |p| {
            const DEPTH: u64 = 8;
            let ch: SimChannel<u64> = SimChannel::new();
            let rounds = iters.div_ceil(DEPTH);
            let t = Instant::now();
            for _ in 0..rounds {
                for tag in 0..DEPTH {
                    ch.send(p, tag, SimTime::ZERO);
                }
                for tag in (0..DEPTH).map(|i| (i * 3) % DEPTH) {
                    black_box(ch.recv_match(p, |&v| v == tag));
                }
            }
            t.elapsed() * iters as u32 / (rounds * DEPTH) as u32
        })
    });
}

fn bench_runtimes() {
    // Host cost of simulating one MPI allreduce across 16 ranks.
    bench("sim/allreduce_16ranks", |iters| {
        let t = Instant::now();
        for _ in 0..iters {
            let sim = Sim::virtual_time(Machine::test_machine(), 1);
            dynprof_mpi::launch(&sim, dynprof_mpi::JobSpec::new("b", 16), vec![], |p, c| {
                c.init(p);
                let v = c.allreduce(p, c.rank() as u64, |a, b| a + b);
                black_box(v);
                c.finalize(p);
            });
            black_box(sim.run());
        }
        t.elapsed()
    });
    // Host cost of simulating one OpenMP fork-join over 8 threads.
    bench("sim/omp_forkjoin_8threads", |iters| {
        let t = Instant::now();
        for _ in 0..iters {
            let sim = Sim::virtual_time(Machine::test_machine(), 1);
            sim.spawn("app", 0, |p| {
                let rt = dynprof_omp::OmpRuntime::new(p, "app", 8, vec![]);
                for _ in 0..10 {
                    rt.parallel(p, "r", |ctx| {
                        ctx.proc.advance(SimTime::from_micros(5));
                    });
                }
                rt.shutdown(p);
            });
            black_box(sim.run());
        }
        t.elapsed()
    });
    // Host cost of one controller decision at 64 ranks × 32 functions:
    // the per-epoch bookkeeping VT_confsync pays when an overhead budget
    // is set (scan every rank's stat table, compute deltas, score, sort).
    bench("controller/decide_64ranks", |iters| {
        in_virtual_proc(move |p| {
            let vt = VtLib::new("b", 64, VtConfig::all_on(), ProbeCosts::power3());
            for r in 0..64 {
                vt.init(p, r);
            }
            let funcs: Vec<_> = (0..32).map(|i| vt.funcdef(p, &format!("fn_{i}"))).collect();
            for r in 0..64 {
                for (i, &f) in funcs.iter().enumerate() {
                    for _ in 0..(i % 7 + 1) {
                        vt.begin(p, r, 0, f, 1);
                        vt.end(p, r, 0, f);
                    }
                }
            }
            let ctl =
                dynprof_vt::OverheadController::new(dynprof_vt::ControllerConfig::budget(5.0));
            let t = Instant::now();
            for round in 0..iters {
                black_box(ctl.decide(&vt, SimTime::from_micros(round + 1), round));
            }
            t.elapsed()
        })
    });
    // Host cost of one full VT_confsync safe point at 64 ranks.
    bench("sim/confsync_64ranks", |iters| {
        let t = Instant::now();
        for _ in 0..iters {
            let vt = VtLib::new("b", 64, VtConfig::all_on(), ProbeCosts::power3());
            let monitor = dynprof_vt::MonitorLink::new();
            let sim = Sim::virtual_time(Machine::test_machine(), 1);
            let (v2, m2) = (Arc::clone(&vt), Arc::clone(&monitor));
            dynprof_mpi::launch(
                &sim,
                dynprof_mpi::JobSpec::new("b", 64),
                vec![],
                move |p, c| {
                    c.init(p);
                    v2.init(p, c.rank());
                    dynprof_vt::confsync(&v2, &m2, p, c, false);
                    c.finalize(p);
                },
            );
            black_box(sim.run());
        }
        t.elapsed()
    });
}

/// A store writer over an in-memory file, as a capture sink.
fn store_slot(chunk_events: usize) -> dynprof_vt::SharedSink {
    use dynprof_analysis::store::{StoreOptions, StoreWriter};
    let w = StoreWriter::new(
        std::io::Cursor::new(Vec::new()),
        "micro".to_string(),
        StoreOptions { chunk_events },
    )
    .expect("in-memory sink");
    Arc::new(std::sync::Mutex::new(Some(w)))
}

/// The pair `dynprof trace=` installs — summary profile + store, here a
/// temporary file — as a capture sink.
fn capture_slot() -> dynprof_vt::SharedSink {
    use dynprof_analysis::store::{RotatingWriter, StoreOptions};
    use dynprof_analysis::ProfileBuilder;

    let path =
        std::env::temp_dir().join(format!("dynprof-bench-micro-{}.vgvs", std::process::id()));
    let store = RotatingWriter::create(
        &path,
        "micro",
        StoreOptions::default(),
        Default::default(),
        Default::default(),
    )
    .expect("temporary store");
    // Unlinked at once: the open file is all the capture needs.
    std::fs::remove_file(&path).ok();
    Arc::new(std::sync::Mutex::new(Some(dynprof_apps::cli::Capture {
        profile: ProfileBuilder::new(Vec::new(), Default::default()),
        store: Some(store),
    })))
}

fn main() {
    println!("micro-benchmarks (best of 5 calibrated samples)\n");
    bench_obs_primitives();
    bench_check_primitives();
    bench_clock();
    bench_vt_fast_paths();
    bench_image_call();
    bench_verifier();
    bench_store_crc();
    bench_stage_event();
    bench_query_path();
    bench_config_resolve();
    bench_des_engine();
    bench_runtimes();
}
