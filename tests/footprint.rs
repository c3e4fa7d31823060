//! Per-rank footprint: every image of an application shares one
//! [`Program`](dynprof::image::Program) and owns only a small overlay.
//!
//! The ranks of a real job map one text segment and one symbol table per
//! node; the simulator used to hand each rank a deep copy (98.8 KB per
//! smg98 image, 50 MB of a 512-rank session). These tests pin the split
//! from both sides: what is shared really is one allocation, and nothing
//! a rank can change — chains, counts, suspension, hooks — leaks through
//! it to another rank.
//!
//! Patching shares too: ranks patched alike hold one trampoline chain per
//! probe point between them (the program's chain pool), a fault-free
//! control plane keeps nothing per request once it is acknowledged, and an
//! install batch takes its acks as it goes instead of queueing whole in
//! the inboxes. The allocator's high-water mark pins what a whole
//! in-process session peaks at.
//!
//! The same allocator pins the read side's footprint: a store reader owns
//! its chunk buffers, so a pass over a store it has already walked once
//! allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dynprof::analysis::store::{StoreOptions, StoreReader, StoreWriter};
use dynprof::apps::cli::{run_cli, CliArgs};
use dynprof::apps::{smg98, test_app, Smg98Params};
use dynprof::core::{run_session, SessionConfig};
use dynprof::dpcl::{AckResult, DpclClient, DpclSystem, InstrumentationTxn, TxnOptions};
use dynprof::image::{CallerCtx, Image, ProbeCtx, ProbePoint, Snippet, SnippetId, StaticHooks};
use dynprof::sim::{Machine, ProcBackend, Sim, SimTime};
use dynprof::vt::{Event, Policy, VtFuncId};

/// Live heap bytes, its high-water mark, and allocator calls that obtained
/// memory, of the *calling thread*: the test harness runs this file's
/// tests on parallel threads, and a measurement must not see its
/// neighbours' allocations.
struct LiveBytes;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with`: a thread may free memory while its locals are torn down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
    if delta > 0 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: defers to `System` for every operation; the bookkeeping is a
// const-initialised thread-local `Cell` (no allocation, no destructor).
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// What `build` left allocated on this thread, with what it built.
fn live_bytes_of<T>(build: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.with(Cell::get);
    let built = build();
    (built, LIVE.with(Cell::get) - before)
}

/// How far above its starting point this thread's live heap rose while
/// `work` ran.
fn peak_bytes_of<T>(work: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let done = work();
    (done, PEAK.with(Cell::get) - before)
}

/// Does every simulated process run on the calling thread? Only then does
/// this thread's count see a whole session; the threads carrier spreads
/// it over one OS thread per process.
fn one_thread_carrier() -> bool {
    let on = ProcBackend::default_backend() != ProcBackend::Threads;
    if !on {
        println!("skipped: the threads carrier allocates off this thread");
    }
    on
}

/// Allocations (and growing reallocations) `work` made on this thread.
fn allocations_of<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let done = work();
    (done, ALLOCS.with(Cell::get) - before)
}

fn counting_snippet(hits: &Arc<AtomicUsize>) -> Snippet {
    let hits = Arc::clone(hits);
    Snippet::new("count", SimTime::from_nanos(100), move |ctx| {
        hits.fetch_add(ctx.reps as usize, Ordering::Relaxed);
    })
}

/// Run `body` as one simulated process.
fn in_sim(body: impl FnOnce(&dynprof::sim::Proc) + Send + 'static) {
    let sim = Sim::virtual_time(Machine::test_machine(), 1);
    sim.spawn("p", 0, body);
    sim.run();
}

#[test]
fn images_of_one_app_share_the_program_and_nothing_else() {
    let app = smg98(2, Smg98Params::test());
    let (a, b) = (app.build_image(false), app.build_image(false));
    assert!(Arc::ptr_eq(a.shared_program(), b.shared_program()));
    let f = a
        .func(&app.subset[0])
        .expect("subset function in the image");
    assert_eq!(b.func(&app.subset[0]), Some(f), "one symbol table");

    // Patching `a` leaves `b` unpatched, down to the patch counter.
    let hits = Arc::new(AtomicUsize::new(0));
    a.try_insert(ProbePoint::entry(f), counting_snippet(&hits))
        .expect("patchable");
    assert!(a.occupied(ProbePoint::entry(f)));
    assert!(!b.occupied(ProbePoint::entry(f)));
    assert!(b.instrumented_functions().is_empty());
    assert_eq!((a.patch_count(), b.patch_count()), (2, 0));
    assert_eq!(b.allocated_trampoline_bytes(), 0);

    // Calls are counted, probed and charged per image; and a suspended
    // `a` holds nobody up in `b`.
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    in_sim(move |p| {
        for _ in 0..3 {
            a2.call(p, CallerCtx::default(), f, || ());
        }
        let after_a = p.now();
        assert!(after_a > SimTime::ZERO, "the probe on `a` charged");
        a2.suspend(p);
        assert!(a2.is_suspended() && !b2.is_suspended());
        b2.call(p, CallerCtx::default(), f, || ());
        assert_eq!(p.now(), after_a, "no probe, no gate: `b` costs nothing");
        a2.resume(p, SimTime::ZERO);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 3);
    assert_eq!((a.call_count(f), b.call_count(f)), (3, 1));
}

#[test]
fn static_hooks_and_static_flags_stay_with_their_image() {
    struct Count(AtomicUsize);
    impl StaticHooks for Count {
        fn begin(&self, _: &ProbeCtx<'_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn end(&self, _: &ProbeCtx<'_>) {}
    }
    let app = smg98(2, Smg98Params::test());
    let (hooked, bare) = (app.build_image(true), app.build_image(true));
    assert!(Arc::ptr_eq(hooked.shared_program(), bare.shared_program()));
    let count = Arc::new(Count(AtomicUsize::new(0)));
    hooked.set_static_hooks(Arc::clone(&count) as Arc<dyn StaticHooks>);
    let f = hooked.func(&app.subset[0]).expect("subset function");
    let (hooked2, bare2) = (Arc::clone(&hooked), Arc::clone(&bare));
    in_sim(move |p| {
        bare2.call(p, CallerCtx::default(), f, || ());
        hooked2.call(p, CallerCtx::default(), f, || ());
    });
    assert_eq!(count.0.load(Ordering::Relaxed), 1, "only `hooked` fired");

    // The two flavours of the app are two programs: compiling the
    // instrumentation in does not flip the flag under a dynamic image.
    let dynamic = app.build_image(false);
    assert!(!Arc::ptr_eq(
        dynamic.shared_program(),
        bare.shared_program()
    ));
    assert!(bare
        .functions()
        .all(|f| bare.info(f).statically_instrumented));
    assert!(dynamic
        .functions()
        .all(|f| !dynamic.info(f).statically_instrumented));
}

#[test]
fn five_hundred_idle_smg98_images_fit_in_five_megabytes() {
    const RANKS: usize = 512;
    let app = smg98(RANKS, Smg98Params::test());
    let (images, total) = live_bytes_of(|| {
        (0..RANKS)
            .map(|_| app.build_image(false))
            .collect::<Vec<Arc<Image>>>()
    });
    let (one_more, each) = live_bytes_of(|| app.build_image(false));
    println!(
        "{RANKS} idle smg98 images ({} functions): {total} bytes live, {each} per image",
        one_more.len()
    );
    assert!(each <= 8 << 10, "an idle image holds {each} bytes");
    assert!(total <= 5 << 20, "{RANKS} idle images hold {total} bytes");
    assert_eq!(images.len(), RANKS);
}

/// The happens-before checker keeps its per-process name table only in a
/// run armed with `enable_check`: spawning the same idle processes costs
/// the names more when armed, and an unarmed run holds no checker state.
#[test]
fn only_an_armed_run_keeps_checker_state_per_process() {
    const PROCS: usize = 1_000;
    let name = |i: usize| format!("idle-process-{i:05}");
    let spawned = |armed: bool| {
        let sim =
            Sim::virtual_time_with_backend(Machine::test_machine(), 1, ProcBackend::Coroutine);
        if armed {
            sim.enable_check();
        }
        let ((), bytes) = live_bytes_of(|| {
            for i in 0..PROCS {
                sim.spawn(name(i), 0, |_| {});
            }
        });
        sim.run();
        bytes
    };
    let (unarmed, armed) = (spawned(false), spawned(true));
    println!("{PROCS} idle processes: {unarmed} bytes unarmed, {armed} armed");
    let names = (PROCS * name(0).len()) as isize;
    assert!(
        armed - unarmed >= names,
        "arming added {} bytes; the name table alone is {names}",
        armed - unarmed
    );
}

#[test]
fn two_sessions_in_one_process_write_the_same_bytes() {
    // Each `run_cli` builds its own `AppSpec`, hence its own program: the
    // cache is per application value, not per process.
    let dir = std::env::temp_dir().join("dynprof-footprint");
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("script.dp");
    std::fs::write(&script, "insert-file subset\nstart\nquit\n").unwrap();
    let run = |tag: &str| {
        let store = dir.join(format!("{tag}.vgvs"));
        let args = [
            script.to_str().unwrap(),
            "-",
            "-",
            "smg98",
            "cpus=64",
            "policy=dynamic",
            "seed=42",
            &format!("trace={}", store.display()),
        ]
        .map(String::from);
        let out = run_cli(&CliArgs::parse(&args).unwrap()).unwrap();
        assert_eq!(out.trace_error, None);
        assert_eq!(out.report.probe_pairs_installed, 62 * 64);
        (out.summary, out.timefile, std::fs::read(store).unwrap())
    };
    let (first, second) = (run("first"), run("second"));
    assert_eq!(first.0, second.0, "summary");
    assert_eq!(first.1, second.1, "timefile");
    assert!(first.2 == second.2, ".vgvs bytes differ");
}

/// Every probe point of `funcs`, entry then exit.
fn points(funcs: &[dynprof::image::FuncId]) -> Vec<ProbePoint> {
    funcs
        .iter()
        .flat_map(|&f| [ProbePoint::entry(f), ProbePoint::exit(f)])
        .collect()
}

#[test]
fn ranks_patched_alike_share_chains_and_change_alone() {
    let app = smg98(3, Smg98Params::test());
    let images: Vec<_> = (0..3).map(|_| app.build_image(false)).collect();
    let funcs: Vec<_> = app
        .subset
        .iter()
        .filter_map(|n| images[0].func(n))
        .collect();
    let hits = Arc::new(AtomicUsize::new(0));
    let probe = counting_snippet(&hits);
    let patch = |img: &Image| {
        for point in points(&funcs) {
            img.try_insert(point, probe.clone()).expect("patchable");
        }
    };
    // The first rank builds the chains; a rank patched alike allocates its
    // chain table — one word per probe point — and nothing else.
    let ((), first) = live_bytes_of(|| patch(&images[0]));
    let ((), repeat) = live_bytes_of(|| patch(&images[1]));
    patch(&images[2]);
    let table = (2 * images[0].len() * std::mem::size_of::<usize>()) as isize;
    assert_eq!(repeat, table, "a repeat rank holds its table only");
    assert!(
        first > repeat,
        "the first rank built the chains ({first} bytes)"
    );

    // Re-patching one rank, or unpatching another, leaves the third's
    // chains as they were: one probe per call.
    let f = funcs[0];
    let extra = Arc::new(AtomicUsize::new(0));
    images[0]
        .try_insert(ProbePoint::entry(f), counting_snippet(&extra))
        .expect("patchable");
    assert_eq!(images[1].remove_function_instr(f), 2);
    let imgs = images.clone();
    in_sim(move |p| {
        for img in &imgs {
            img.call(p, CallerCtx::default(), f, || ());
        }
    });
    // Rank 0: entry + extra + exit; rank 1: nothing; rank 2: entry + exit.
    assert_eq!(hits.load(Ordering::Relaxed), 4);
    assert_eq!(extra.load(Ordering::Relaxed), 1);
}

#[test]
fn a_dropped_chain_never_comes_back_for_another_snippet() {
    // Every rank drops every chain; then a different snippet goes in at
    // the same points under the same handles. It runs; the old one never
    // does again.
    let app = smg98(4, Smg98Params::test());
    let images: Vec<_> = (0..4).map(|_| app.build_image(false)).collect();
    let funcs: Vec<_> = app
        .subset
        .iter()
        .filter_map(|n| images[0].func(n))
        .collect();
    let (old, new) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    for round in [&old, &new] {
        let probe = counting_snippet(round);
        for img in &images {
            for &f in &funcs {
                img.remove_function_instr(f);
            }
            for point in points(&funcs) {
                img.try_insert(point, probe.clone()).expect("patchable");
            }
        }
    }
    let imgs = images.clone();
    let calls = funcs.clone();
    in_sim(move |p| {
        for img in &imgs {
            for &f in &calls {
                img.call(p, CallerCtx::default(), f, || ());
            }
        }
    });
    assert_eq!(old.load(Ordering::Relaxed), 0, "a stale chain ran");
    assert_eq!(new.load(Ordering::Relaxed), 2 * funcs.len() * images.len());
}

#[test]
fn two_concurrent_sessions_of_one_app_stay_apart() {
    // Both sessions' images share the app's program, and with it its chain
    // pool; each session compiles its own snippets, so neither may ever
    // run the other's chain. Each must trace exactly what it traces alone.
    let app = test_app("smg98", 16).unwrap();
    let cfg = SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic).with_seed(7);
    let solo = run_session(&app, cfg.clone());
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| run_session(&app, cfg.clone()));
        let b = s.spawn(|| run_session(&app, cfg.clone()));
        (a.join().unwrap(), b.join().unwrap())
    });
    let alone = solo.vt.build_trace();
    assert!(!alone.events.is_empty());
    for r in [&a, &b] {
        assert!(Arc::ptr_eq(
            r.images[0].shared_program(),
            solo.images[0].shared_program()
        ));
        assert_eq!(r.probe_pairs_installed, solo.probe_pairs_installed);
        assert_eq!((r.app_time, r.total_time), (solo.app_time, solo.total_time));
        assert!(
            r.vt.build_trace() == alone,
            "a session traced the other's probes"
        );
    }
}

#[test]
fn fault_free_installs_leave_no_retry_state() {
    // A fault-free control plane cannot lose or repeat a message, so the
    // client keeps no resend copy and the daemons no dedup entry: after
    // the first round, installing and removing a probe in 64 ranks again
    // and again leaves the heap where it was — give or take a queue's
    // capacity, far below one byte per request sent.
    if !one_thread_carrier() {
        return;
    }
    const RANKS: usize = 64;
    const ROUNDS: usize = 6;
    let app = smg98(RANKS, Smg98Params::test());
    let images: Vec<_> = (0..RANKS).map(|_| app.build_image(false)).collect();
    let f = images[0].func(&app.subset[0]).unwrap();
    let live = Arc::new(std::sync::Mutex::new(Vec::new()));
    let live2 = Arc::clone(&live);
    let sim = Sim::virtual_time(Machine::ibm_power3_colony(), 3);
    sim.spawn("dynprof", 0, move |p| {
        let client = DpclClient::new(DpclSystem::new(["u"]), "u");
        let nodes = p.machine().nodes;
        let handles: Vec<_> = images
            .iter()
            .enumerate()
            .map(|(i, img)| {
                client
                    .attach(p, 1 + i % (nodes - 1), Arc::clone(img), "r")
                    .unwrap()
            })
            .collect();
        for _ in 0..ROUNDS {
            // One snippet for every rank, as dynprof compiles it.
            let (point, probe) = (ProbePoint::entry(f), Snippet::noop("n"));
            let installs: Vec<_> = handles
                .iter()
                .map(|h| client.install_probe(p, h, point, probe.clone()))
                .collect();
            for &req in &installs {
                assert!(!client.resend_pending(p, req), "a resend copy was kept");
            }
            let removes: Vec<_> = client
                .wait_all(p, &installs)
                .into_iter()
                .zip(&handles)
                .map(|((_, ack), h)| {
                    let AckResult::Ok { detail } = ack else {
                        panic!("{ack:?}")
                    };
                    client.remove_probe(p, h, point, SnippetId(detail))
                })
                .collect();
            assert!(client.wait_all(p, &removes).iter().all(|(_, a)| a.is_ok()));
            live2.lock().unwrap().push(LIVE.with(Cell::get));
        }
        client.shutdown(p);
    });
    sim.run();
    let live = live.lock().unwrap();
    println!("live heap after each round of 64 installs and removes: {live:?}");
    let sent = (ROUNDS - 2) * 2 * RANKS;
    let grew = live[ROUNDS - 1] - live[1];
    assert!(
        grew < sent as isize,
        "control-plane state grew {grew} bytes over {sent} requests: {live:?}"
    );
}

/// The live heap high-water mark of `dynprof smg98 cpus=CPUS
/// policy=dynamic` with the subset inserted, every rank and daemon on this
/// thread; `None` on the threads carrier. The first run pays for
/// process-wide lazy state; the two after it must agree to the byte.
fn dynamic_session_peak(cpus: usize) -> Option<isize> {
    if !one_thread_carrier() {
        return None;
    }
    let dir = std::env::temp_dir().join(format!(
        "dynprof-footprint-peak-{cpus}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("script.dp");
    std::fs::write(&script, "insert-file subset\nstart\nquit\n").unwrap();
    let args = [
        script.to_str().unwrap(),
        "-",
        "-",
        "smg98",
        &format!("cpus={cpus}"),
        "policy=dynamic",
        "seed=42",
    ]
    .map(String::from);
    let session = || {
        let out = run_cli(&CliArgs::parse(&args).unwrap()).unwrap();
        assert_eq!(out.report.probe_pairs_installed, 62 * cpus);
    };
    session();
    let ((), peak) = peak_bytes_of(session);
    let ((), again) = peak_bytes_of(session);
    std::fs::remove_dir_all(&dir).ok();
    println!("smg98 cpus={cpus} policy=dynamic, subset inserted: peak live heap {peak} bytes");
    assert_eq!(peak, again, "the peak is a function of the seed");
    Some(peak)
}

#[test]
fn a_fault_free_install_takes_most_acks_while_it_sends() {
    // The session's install of smg98's subset at 512 ranks, through the
    // same calls: one function's probes in every rank, sent, then what
    // has come back taken — and only the rest left for `wait_plain`.
    const RANKS: usize = 512;
    let app = smg98(RANKS, Smg98Params::test());
    let images: Vec<_> = (0..RANKS).map(|_| app.build_image(false)).collect();
    let funcs: Vec<_> = app
        .subset
        .iter()
        .filter_map(|n| images[0].func(n))
        .collect();
    let sent = 2 * funcs.len() * RANKS;
    let left = Arc::new(std::sync::Mutex::new((0, 0)));
    let left2 = Arc::clone(&left);
    let machine = Machine::ibm_power3_colony();
    let sim = Sim::virtual_time(machine.clone(), 1);
    sim.spawn("dynprof", machine.nodes - 1, move |p| {
        let client = DpclClient::new(DpclSystem::new(["u"]), "u");
        let handles: Vec<_> = images
            .iter()
            .enumerate()
            .map(|(rank, img)| {
                let node = p.machine().node_of_rank(rank);
                client.attach(p, node, Arc::clone(img), "r").unwrap()
            })
            .collect();
        let mut txn = InstrumentationTxn::new(TxnOptions::default());
        for &f in &funcs {
            for h in &handles {
                txn.stage_install(h, ProbePoint::entry(f), Snippet::noop("begin"));
                txn.stage_install(h, ProbePoint::exit(f), Snippet::noop("end"));
            }
            txn.send_plain(p, &client);
            txn.collect_acks(p, &client);
        }
        let unacked = txn.unacked();
        let (applied, failed) = txn.wait_plain(p, &client);
        assert!(failed.is_empty(), "{failed:?}");
        *left2.lock().unwrap() = (unacked, applied);
        client.shutdown(p);
    });
    sim.run();
    let (unacked, applied) = *left.lock().unwrap();
    println!(
        "{sent} installs: {} acks taken while sending, {unacked} left",
        sent - unacked
    );
    assert_eq!(applied as usize, sent);
    assert!(
        unacked * 20 < sent,
        "{unacked} of {sent} acks were still out when the batch was sent"
    );
}

#[test]
fn a_64_rank_dynamic_session_peaks_under_its_ceiling() {
    // The deterministic count behind the session-RSS claim.
    const CEILING: isize = 1_750_000;
    if let Some(peak) = dynamic_session_peak(64) {
        assert!(
            peak <= CEILING,
            "peak live heap {peak} bytes, ceiling {CEILING}"
        );
    }
}

#[test]
fn a_256_rank_dynamic_session_peaks_under_its_ceiling() {
    // An install batch is 62 functions × 2 probes × every rank: sent
    // without a pause, all of its requests and then all of its acks sit
    // in the control plane's inboxes at once, so the peak grows with the
    // batch. Taking each function's acks as it goes bounds the queues by
    // about one function's worth.
    const CEILING: isize = 4_500_000;
    if let Some(peak) = dynamic_session_peak(256) {
        assert!(
            peak <= CEILING,
            "peak live heap {peak} bytes, ceiling {CEILING}"
        );
    }
}

#[test]
fn a_second_pass_over_a_store_allocates_nothing() {
    // 64 ranks, chunks of every size up to 256 events: rank r records
    // 260 + 3r events, so each leaves one full chunk and a shorter one.
    let path = std::env::temp_dir().join(format!("dynprof-footprint-{}.vgvs", std::process::id()));
    let mut w = StoreWriter::create(&path, "pass", StoreOptions { chunk_events: 256 }).unwrap();
    w.set_functions(vec!["step".to_string()]);
    let mut events = 0u64;
    for rank in 0..64u32 {
        for i in 0..260 + 3 * u64::from(rank) {
            let t = SimTime::from_micros(3 * i);
            w.append(&Event::FuncEnter {
                t,
                rank,
                thread: 0,
                func: VtFuncId(0),
            });
            w.append(&Event::MpiCall {
                t: t + SimTime::from_micros(1),
                t_end: t + SimTime::from_micros(2),
                rank,
                op: 2,
                peer: (rank as i32 + 1) % 64,
                bytes: 1 << (i % 40),
            });
            events += 2;
        }
    }
    let stats = w.finish().unwrap();
    assert_eq!(stats.events, events);
    assert!(stats.chunks > 2 * 64, "{stats:?}");

    let mut r = StoreReader::open(&path).unwrap();
    let pass = |r: &mut StoreReader| {
        let mut seen = 0u64;
        let q = r.for_each_query(None, None, |_| seen += 1).unwrap();
        assert_eq!(
            (seen, q.events, q.chunks_decoded),
            (events, events, stats.chunks)
        );
    };
    // The first pass grows the reader's buffers to the largest chunk…
    let ((), first) = allocations_of(|| pass(&mut r));
    assert!(first > 0, "the buffers came from somewhere");
    // …and that is the last the allocator hears of it: nothing per event,
    // nothing per chunk.
    let ((), second) = allocations_of(|| pass(&mut r));
    assert_eq!(
        second, 0,
        "a steady-state pass over {} chunks",
        stats.chunks
    );
    std::fs::remove_file(&path).ok();
}
