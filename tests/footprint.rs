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
//! The same allocator keeps the **allocation ledger**: exactly how many
//! heap allocations one steady-state operation of a fast path performs —
//! control-plane send, probe fire and insert, a message through a
//! channel, a captured event, profile push, query pass, coroutine handoff.
//! The paper's cost hierarchy (absent probes free, deactivated probes a
//! lookup) has a host-side half, and the ledger is it: an accidental
//! `clone()` or `Box::new` on a fast path is a deterministic failure, not
//! a 3 %-slower shrug.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dynprof::analysis::store::{
    RotatingWriter, StoreOptions, StoreReader, StoreWriter, STAGE_BUDGET,
};
use dynprof::analysis::{ProfileBuilder, ProfileOptions};
use dynprof::apps::cli::{run_cli, Capture, CliArgs};
use dynprof::apps::{smg98, test_app, Smg98Params};
use dynprof::core::{run_session, SessionConfig};
use dynprof::dpcl::{DpclClient, DpclSystem, InstrumentationTxn, TxnOptions};
use dynprof::image::{
    CallerCtx, FunctionInfo, Image, ImageBuilder, ProbeCtx, ProbePoint, Snippet, StaticHooks,
};
use dynprof::sim::sync::{Mailboxes, SimChannel};
use dynprof::sim::{Machine, ProbeCosts, Proc, ProcBackend, Sim, SimTime};
use dynprof::vt::{Event, Policy, SharedSink, VtConfig, VtFuncId, VtLib};

/// Live heap bytes, its high-water mark, and allocator calls, of the
/// *calling thread*: the test harness runs this file's tests on parallel
/// threads, and a measurement must not see its neighbours' allocations.
struct LiveBytes;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// `try_with`: a thread may free memory while its locals are torn down.

/// Move this thread's live heap by `delta` bytes.
fn note(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// Count one call that asked the allocator for memory.
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers to `System` for every operation; the bookkeeping is a
// const-initialised thread-local `Cell` (no allocation, no destructor).
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        note(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        note(layout.size() as isize);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Calls `work` made on this thread to `alloc`, `alloc_zeroed` and
/// `realloc`, a shrinking `realloc` included: every time it went to the
/// allocator for memory.
fn allocations_of<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let done = work();
    (done, ALLOCS.with(Cell::get) - before)
}

/// Pin one fast path's ledger: `total` allocations over `ops`
/// steady-state operations must floor-divide to exactly `per_op`, and the
/// amortized remainder (container doublings, chunk flushes) must stay
/// within `max_amortized`. The remainder bound catches a fractional
/// regression: a path that allocates every other op still floors to its
/// old per-op count but blows the remainder.
fn pin_allocs(name: &str, total: usize, ops: usize, per_op: usize, max_amortized: usize) {
    let (floor, amortized) = (total / ops, total % ops);
    println!("{name}: {floor} allocs/op (+{amortized} amortized over {ops} ops)");
    assert_eq!(
        floor, per_op,
        "{name}: per-op allocation count drifted (total {total} over {ops} ops)"
    );
    assert!(
        amortized <= max_amortized,
        "{name}: amortized allocations {amortized} exceed budget {max_amortized} \
         (a fast path likely gained a conditional allocation)"
    );
}

/// A directory of this process's own under the system temp dir, so two
/// suites running at once never share a path. The process id is padded to
/// a fixed width: a session keeps its paths, so its peak would otherwise
/// move with the number of digits in the id.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let id = std::process::id();
    let dir = std::env::temp_dir().join(format!("dynprof-footprint-{tag}-{id:010}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn counting_snippet(hits: &Arc<AtomicUsize>) -> Snippet {
    let hits = Arc::clone(hits);
    Snippet::new("count", SimTime::from_nanos(100), move |ctx| {
        hits.fetch_add(ctx.reps as usize, Ordering::Relaxed);
    })
}

/// Run `body` as one simulated process, and return what it returned.
fn in_sim<T: Send + 'static>(body: impl FnOnce(&Proc) -> T + Send + 'static) -> T {
    let out = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let sim = Sim::virtual_time(Machine::test_machine(), 1);
    sim.spawn("p", 0, move |p| *out2.lock().unwrap() = Some(body(p)));
    sim.run();
    let done = out.lock().unwrap().take();
    done.expect("the process ran to its end")
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

    // Calls are probed and charged per image — `b`'s call runs no probe
    // and costs nothing — and a suspended `a` holds nobody up in `b`.
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
fn five_hundred_idle_images_stay_under_their_totals() {
    // An idle image is its per-rank overlay, whatever the size of the
    // program it shares — and holds nothing per function or per probe
    // point until it is patched (312 bytes each). The total, the shared
    // program included, measures 225 306 bytes on smg98 and 170 134 on
    // sweep3d.
    const RANKS: usize = 512;
    for (name, ceiling, total_ceiling) in [("smg98", 340, 245_000), ("sweep3d", 340, 185_000)] {
        let app = test_app(name, RANKS).expect("known app");
        let (images, total) = live_bytes_of(|| {
            (0..RANKS)
                .map(|_| app.build_image(false))
                .collect::<Vec<Arc<Image>>>()
        });
        let (one_more, each) = live_bytes_of(|| app.build_image(false));
        println!(
            "{RANKS} idle {name} images ({} functions): {total} bytes live, {each} per image",
            one_more.len()
        );
        assert!(
            each <= ceiling,
            "an idle {name} image holds {each} bytes, ceiling {ceiling}"
        );
        assert!(
            total <= total_ceiling,
            "{RANKS} idle {name} images hold {total} bytes, ceiling {total_ceiling}"
        );
        assert_eq!(images.len(), RANKS);
    }
}

/// What patching adds to an image of a 512-rank job: its point index and
/// one chain word per occupied point (1 788 bytes on smg98, 420 on
/// sweep3d), plus its share of the chains the ranks share. A ceiling per
/// app keeps that share from growing back toward a private copy of every
/// chain, and the index from growing back toward a word per point.
#[test]
fn five_hundred_patched_images_stay_under_their_ceilings() {
    const RANKS: usize = 512;
    for (name, ceiling) in [("smg98", 1990), ("sweep3d", 470)] {
        let app = test_app(name, RANKS).expect("known app");
        let images: Vec<_> = (0..RANKS).map(|_| app.build_image(false)).collect();
        let funcs: Vec<_> = app
            .subset
            .iter()
            .filter_map(|n| images[0].func(n))
            .collect();
        let probe = Snippet::noop("probe");
        let ((), bytes) = live_bytes_of(|| {
            for img in &images {
                for point in points(&funcs) {
                    img.try_insert(point, probe.clone())
                        .expect("patchable subset function");
                }
            }
        });
        let each = bytes / RANKS as isize;
        println!(
            "{RANKS} {name} images, {} probe pairs each: {each} bytes per image on top of idle",
            funcs.len()
        );
        assert!(
            each <= ceiling,
            "{name}: {each} bytes per image, ceiling {ceiling}"
        );
    }
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
    let dir = scratch_dir("sessions");
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
    std::fs::remove_dir_all(&dir).ok();
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
    // Allocations of every insert after the rank's first, and how many
    // inserts that is: the first allocates the rank's point index and
    // chain list.
    let patch = |img: &Image| {
        let mut points = points(&funcs).into_iter();
        let insert = |point| {
            img.try_insert(point, probe.clone()).expect("patchable");
        };
        points.by_ref().take(1).for_each(insert);
        let ops = points.len();
        (allocations_of(|| points.for_each(insert)).1, ops)
    };
    // The first rank builds the chains; a rank patched alike allocates its
    // point index — one `u16` per probe point — and one chain word per
    // point it occupies, and nothing else.
    let ((first_allocs, ops), first) = live_bytes_of(|| patch(&images[0]));
    let ((repeat_allocs, _), repeat) = live_bytes_of(|| patch(&images[1]));
    patch(&images[2]);
    let index = 2 * images[0].len() * std::mem::size_of::<u16>();
    let table = (index + points(&funcs).len() * std::mem::size_of::<usize>()) as isize;
    assert_eq!(
        repeat, table,
        "a repeat rank holds its index and chain words only"
    );
    assert!(
        first > repeat,
        "the first rank built the chains ({first} bytes)"
    );
    // Counted: the first rank's insert allocates the chain's `Arc` and its
    // links (the snippet is all `Arc`s, and the program's chain pool grows
    // by doubling); a repeat rank's finds the chain in the pool.
    pin_allocs("probe_insert_first_rank", first_allocs, ops, 2, 16);
    pin_allocs("probe_insert_repeat_rank", repeat_allocs, ops, 0, 0);

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
    let live = Arc::new(Mutex::new(Vec::new()));
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
                    assert!(ack.is_ok(), "{ack:?}");
                    client.remove_function(p, h, f)
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

/// The live heap high-water mark of `dynprof APP cpus=CPUS policy=dynamic
/// seed=42` with the subset inserted, capturing to a store when `traced`,
/// every rank and daemon on this thread; `None` on the threads carrier.
/// The first run pays for process-wide lazy state; the two after it must
/// agree to the byte.
fn dynamic_session_peak(app: &str, cpus: usize, traced: bool) -> Option<isize> {
    if !one_thread_carrier() {
        return None;
    }
    let traced_tag = if traced { "-traced" } else { "" };
    let dir = scratch_dir(&format!("peak-{cpus}{traced_tag}"));
    let script = dir.join("script.dp");
    std::fs::write(&script, "insert-file subset\nstart\nquit\n").unwrap();
    let store = dir.join("run.vgvs");
    let mut args = vec![
        script.to_str().unwrap().to_string(),
        "-".into(),
        "-".into(),
        app.into(),
        format!("cpus={cpus}"),
        "policy=dynamic".into(),
        "seed=42".into(),
    ];
    if traced {
        args.push(format!("trace={}", store.display()));
    }
    let pairs = test_app(app, cpus).expect("known app").subset.len() * cpus;
    let session = || {
        let out = run_cli(&CliArgs::parse(&args).unwrap()).unwrap();
        assert_eq!(out.report.probe_pairs_installed, pairs);
    };
    session();
    let ((), peak) = peak_bytes_of(session);
    let ((), again) = peak_bytes_of(session);
    std::fs::remove_dir_all(&dir).ok();
    let trace = if traced { ", traced" } else { "" };
    println!(
        "{app} cpus={cpus} policy=dynamic{trace}, subset inserted: peak live heap {peak} bytes"
    );
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
    let left = Arc::new(Mutex::new((0, 0)));
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
    // The deterministic count behind the session-RSS claim: 1 323 838
    // bytes with the temp dir at `/tmp`. The session keeps its script's
    // path, so the peak grows a byte per byte of a longer temp dir.
    const CEILING: isize = 1_324_000;
    if let Some(peak) = dynamic_session_peak("smg98", 64, false) {
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
    // about one function's worth. Measured: 3 162 866 bytes under `/tmp`.
    const CEILING: isize = 3_163_000;
    if let Some(peak) = dynamic_session_peak("smg98", 256, false) {
        assert!(
            peak <= CEILING,
            "peak live heap {peak} bytes, ceiling {CEILING}"
        );
    }
}

#[test]
fn a_traced_256_rank_sweep3d_session_peaks_under_its_ceiling() {
    // Every rank's trace is one chunk, open until the capture closes: the
    // 256 stages would hold about 590 KB at the peak, past the capture's
    // stage budget, so all but about the budget is spilled and each rank
    // keeps one block. Held in memory whole, the stages peaked at about
    // 3.08 MB, above this ceiling; spilling, about 2.80 MB.
    const CEILING: isize = 3_000_000;
    if let Some(peak) = dynamic_session_peak("sweep3d", 256, true) {
        assert!(
            peak <= CEILING,
            "peak live heap {peak} bytes, ceiling {CEILING}"
        );
    }
}

#[test]
fn a_second_pass_over_a_store_allocates_nothing() {
    // 64 ranks, chunks of every size up to 256 events: rank r records an
    // enter, a send, an exit and a collective 260 + 3r times, so each
    // leaves full chunks and a shorter one of its own length.
    let path = std::env::temp_dir().join(format!("dynprof-footprint-{}.vgvs", std::process::id()));
    let mut w = StoreWriter::create(&path, "pass", StoreOptions { chunk_events: 256 }).unwrap();
    w.set_functions(vec!["step".to_string()]);
    let mut events = 0u64;
    for rank in 0..64u32 {
        for i in 0..260 + 3 * u64::from(rank) {
            let (t, us) = (SimTime::from_micros(5 * i), SimTime::from_micros);
            let (thread, func) = (0, VtFuncId(0));
            w.append(&Event::FuncEnter {
                t,
                rank,
                thread,
                func,
            });
            w.append(&Event::MpiCall {
                t: t + us(1),
                t_end: t + us(2),
                rank,
                op: 2,
                peer: (rank as i32 + 1) % 64,
                bytes: 1 << (i % 40),
            });
            w.append(&Event::FuncExit {
                t: t + us(3),
                rank,
                thread,
                func,
            });
            w.append(&Event::MpiCall {
                t: t + us(3),
                t_end: t + us(4),
                rank,
                op: 7,
                peer: -1,
                bytes: 8,
            });
            events += 4;
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
    pin_allocs("query_pass", second, events as usize, 0, 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_fault_free_control_send_allocates_nothing() {
    // With no fault plan installed, `send_ctl` + `try_recv` of a
    // pre-allocated payload is exactly `send`: no speculative clone for
    // the duplication path, no RNG draw, no queue churn.
    const OPS: usize = 4096;
    const WARM: usize = 256;
    let total = in_sim(|p| {
        let ch: SimChannel<Box<[u8]>> = SimChannel::new_fifo();
        let mut payloads: Vec<Box<[u8]>> = (0..WARM + OPS)
            .map(|_| vec![0u8; 64].into_boxed_slice())
            .collect();
        let mut op = || {
            ch.send_ctl(p, payloads.pop().expect("payload"), SimTime::ZERO);
            black_box(ch.try_recv_match(p, |_| true));
        };
        (0..WARM).for_each(|_| op());
        allocations_of(|| (0..OPS).for_each(|_| op())).1
    });
    pin_allocs("send_ctl_nofault", total, OPS, 0, 16);
}

#[test]
fn a_probe_fire_allocates_nothing() {
    // A counting probe fired through a patched image: probe-table lookup,
    // trampoline, snippet closure, cost charge.
    const OPS: usize = 4096;
    const WARM: usize = 256;
    let hits = Arc::new(AtomicUsize::new(0));
    let probe = counting_snippet(&hits);
    let total = in_sim(move |p| {
        let mut bld = ImageBuilder::new("ledger");
        let f = bld.add(FunctionInfo::new("f"));
        let img = bld.build();
        img.try_insert(ProbePoint::entry(f), probe)
            .expect("patchable");
        let fire = || {
            img.call(p, CallerCtx::default(), f, || black_box(1));
        };
        (0..WARM).for_each(|_| fire());
        allocations_of(|| (0..OPS).for_each(|_| fire())).1
    });
    assert_eq!(hits.load(Ordering::Relaxed), WARM + OPS);
    pin_allocs("probe_fire", total, OPS, 0, 16);
}

#[test]
fn a_channel_message_allocates_nothing() {
    // A keyed FIFO channel (send, index, receive by key and from the
    // front) and a mailbox of a set (send, receive by predicate) in steady
    // state: queue, index and slab keep their capacity, and a hole costs
    // no more than a message.
    const OPS: u64 = 4096;
    const WARM: u64 = 256;
    const DEPTH: u64 = 8;
    let total = in_sim(|p| {
        let keyed: SimChannel<u64> = SimChannel::new_fifo_keyed(|&v| (v % 2 == 0).then_some(v));
        let mailbox: Mailboxes<u64> = Mailboxes::new(1, |_| None);
        let far = SimTime::from_secs(3600);
        let round = |r: u64| {
            let base = r * DEPTH;
            for v in base..base + DEPTH {
                keyed.send(p, v, SimTime::ZERO);
                mailbox.send(p, 0, v, SimTime::ZERO);
            }
            for v in (base..base + DEPTH).rev() {
                match v % 2 {
                    0 => black_box(keyed.recv_key_deadline(p, v, far)),
                    _ => black_box(keyed.try_recv_match(p, |&m| m == v)),
                };
                black_box(mailbox.recv_match(p, 0, |&m| m == v));
            }
        };
        (0..WARM / DEPTH).for_each(round);
        allocations_of(|| (WARM / DEPTH..(WARM + OPS) / DEPTH).for_each(round)).1
    });
    // OPS messages through each of the two channels.
    pin_allocs("chan_send_recv", total, 2 * OPS as usize, 0, 0);
}

#[test]
fn a_job_s_mailboxes_hold_what_is_in_flight() {
    // 1 152 mailboxes, the paper's job, filled and drained one after
    // another, 16 messages each. Per-mailbox queues would keep 1 152 x 16
    // slots when the last is drained; the set's one slab keeps what was
    // in flight at once: 16 slots, and at most one growth step more.
    const RANKS: usize = 1152;
    let (first, rest) = in_sim(|p| {
        let set: Mailboxes<u64> = Mailboxes::new(RANKS, |_| None);
        let fill_and_drain = |to: usize| {
            (0..16).for_each(|v| set.send(p, to, v, SimTime::ZERO));
            (0..16)
                .rev()
                .for_each(|v| assert_eq!(set.recv_match(p, to, |&m| m == v), v));
        };
        // What one mailbox's burst leaves held is the slab's growth to 16.
        let ((), first) = live_bytes_of(|| fill_and_drain(0));
        let ((), rest) = live_bytes_of(|| (1..RANKS).for_each(fill_and_drain));
        (first, rest)
    });
    println!("{RANKS} mailboxes drained one after another hold {first} + {rest} bytes");
    assert!(first > 0, "a burst grows the slab");
    assert!(
        rest <= first,
        "the other {} mailboxes added {rest} bytes to the first's {first}",
        RANKS - 1
    );
}

/// Allocations of `OPS` steady-state events — `VT_begin`/`VT_end` through
/// the one emit path into `sink`'s lanes — after a warm-up in which every
/// rank has sealed a chunk of `chunk_events`, so its stage has reached its
/// size. Returns `(allocations, ops, ranks)`.
fn capture_allocs(sink: SharedSink, chunk_events: usize) -> (usize, usize, usize) {
    const OPS: usize = 8192;
    const RANKS: usize = 16;
    let warm = 2 * RANKS * chunk_events;
    let vt = VtLib::new("ledger", RANKS, VtConfig::all_on(), ProbeCosts::power3());
    vt.set_sink(sink);
    let total = in_sim(move |p| {
        (0..RANKS).for_each(|r| vt.init(p, r));
        let funcs: Vec<_> = (0..199)
            .map(|i| vt.funcdef(p, &format!("fn_{i}")))
            .collect();
        let pair = |i: usize| {
            let (rank, f) = (i % RANKS, funcs[i % 199]);
            vt.begin(p, rank, 0, f, 1);
            p.advance(SimTime::from_nanos(100));
            vt.end(p, rank, 0, f);
        };
        (0..warm / 2).for_each(pair);
        let ((), total) = allocations_of(|| (warm / 2..(warm + OPS) / 2).for_each(pair));
        vt.with_rank_events(0, |evs| assert!(evs.is_empty(), "nothing is buffered"));
        vt.close_lanes();
        total
    });
    (total, OPS, RANKS)
}

#[test]
fn a_captured_event_allocates_nothing() {
    // Into a store writer installed as the library's sink: delta encode,
    // varint, CRC, buffered file. A sealed stage keeps its allocation and
    // the chunk header is built on the stack, so the amortized remainder
    // is what the in-memory file and the chunk index grow by — a constant
    // — plus at most one regrowth per rank whose later chunk runs longer
    // than its first. Chunks of 16 384 events take the stages past the
    // budget: a stage that spills writes its full blocks out and fills
    // the one it kept, and a seal reads them back into one buffer.
    for (name, chunk_events) in [("trace_append", 256), ("trace_append_spilled", 16_384)] {
        let opts = StoreOptions { chunk_events };
        let writer = StoreWriter::new(Cursor::new(Vec::new()), "ledger", opts).unwrap();
        let slot = Arc::new(Mutex::new(Some(writer)));
        let (total, ops, ranks) = capture_allocs(Arc::clone(&slot) as _, chunk_events);
        let writer = slot.lock().unwrap().take().expect("sink comes back");
        let stats = writer.finish().unwrap();
        assert_eq!(stats.events as usize, 2 * ranks * chunk_events + ops);
        let spilled = stats.peak_buffered_bytes > STAGE_BUDGET;
        assert_eq!(spilled, chunk_events > 256, "{name}: {stats:?}");
        pin_allocs(name, total, ops, 0, ranks + 8);
    }

    // Into the pair `dynprof trace=` installs, summary profile and store:
    // a rank's lane is its profile state and its store stage, and an
    // event allocates in neither.
    let dir = scratch_dir("capture");
    let opts = StoreOptions::default();
    let path = dir.join("capture.vgvs");
    let store = RotatingWriter::create(
        &path,
        "ledger",
        opts,
        Default::default(),
        Default::default(),
    );
    let capture = Capture {
        profile: ProfileBuilder::new(Vec::new(), ProfileOptions::default()),
        store: Some(Box::new(store.unwrap())),
    };
    // Unlinked at once: the open file is all the capture needs.
    std::fs::remove_dir_all(&dir).ok();
    let slot = Arc::new(Mutex::new(Some(capture)));
    let (total, ops, ranks) = capture_allocs(Arc::clone(&slot) as _, opts.chunk_events);
    let capture = slot.lock().unwrap().take().expect("sink comes back");
    let stats = capture.store.expect("installed").finish().unwrap();
    assert_eq!(stats.events as usize, 2 * ranks * opts.chunk_events + ops);
    black_box(capture.profile.finish());
    pin_allocs("capture_event", total, ops, 0, ranks + 8);
}

#[test]
fn a_profile_push_allocates_nothing() {
    // The session summary's accumulator: a push on a rank, thread and
    // function it has already seen is three array indexings, whatever
    // order the ranks arrive in.
    const OPS: usize = 8192;
    // Enter/exit pairs cycle through 64 interleaved ranks x 4 threads x
    // 199 functions; 64 and 199 are coprime, so this many pairs visit
    // every (rank, function) row and every (rank, thread) stack.
    const WARM_PAIRS: u64 = 64 * 199;
    let functions = (0..199).map(|i| format!("fn_{i}")).collect();
    let mut b = ProfileBuilder::new(functions, ProfileOptions::default());
    let mut push_pair = |pair: u64| {
        let (rank, thread) = ((pair % 64) as u32, (pair / 64 % 4) as u16);
        let func = VtFuncId((pair % 199) as u32);
        let t = SimTime::from_nanos(pair * 200);
        b.push(&Event::FuncEnter {
            t,
            rank,
            thread,
            func,
        });
        b.push(&Event::FuncExit {
            t: t + SimTime::from_nanos(100),
            rank,
            thread,
            func,
        });
    };
    (0..WARM_PAIRS).for_each(&mut push_pair);
    let steady = WARM_PAIRS..WARM_PAIRS + OPS as u64 / 2;
    let ((), total) = allocations_of(|| steady.for_each(&mut push_pair));
    black_box(b.finish());
    pin_allocs("profile_push", total, OPS, 0, 0);
}

#[test]
fn a_coroutine_handoff_allocates_nothing() {
    // Block the receiver, pop the next event, pre-set its clock, swap
    // stacks. On the coroutine carrier, whatever the run's default: there
    // both sides run on this thread, so its count sees the whole handoff
    // (on the threads carrier, park and unpark would hide one).
    const ROUNDS: u32 = 2048; // two handoffs per round: ping->pong->ping
    const WARM: u32 = 128;
    let sim = Sim::virtual_time_with_backend(Machine::test_machine(), 1, ProcBackend::Coroutine);
    let (to_pong, to_ping) = (
        Arc::new(SimChannel::new_fifo()),
        Arc::new(SimChannel::new_fifo()),
    );
    let total = Arc::new(AtomicUsize::new(0));
    let (a, b, total2) = (
        Arc::clone(&to_pong),
        Arc::clone(&to_ping),
        Arc::clone(&total),
    );
    sim.spawn("ping", 0, move |p| {
        let round = |i: u32| {
            a.send(p, i, SimTime::from_micros(1));
            let _: u32 = b.recv(p);
        };
        (0..WARM).for_each(round);
        // The window covers both sides' steady-state work: pong's sends
        // and receives interleave with ours on this thread's count.
        let ((), n) = allocations_of(|| (WARM..WARM + ROUNDS).for_each(round));
        total2.store(n, Ordering::Relaxed);
    });
    sim.spawn("pong", 1, move |p| {
        for _ in 0..WARM + ROUNDS {
            let v: u32 = to_pong.recv(p);
            to_ping.send(p, v, SimTime::from_micros(1));
        }
    });
    sim.run();
    let total = total.load(Ordering::Relaxed);
    pin_allocs("coroutine_handoff", total, 2 * ROUNDS as usize, 0, 16);
}
