//! The store layer on its own, over the store an untraced child captured:
//! the reads behind each `vgv` subcommand through the same library entry
//! points, a full decode, and a full re-encode to a fresh file.

use benchmark::layer::{Report, Shape};
use dynprof_analysis::store::{
    fsck, write_store_from_trace, EventSource, SegmentSet, StoreOptions, StoreReader,
};
use dynprof_analysis::{
    comm_report, info_report, ranks_report, slice_report, top_report, ProfileOptions,
};
use dynprof_sim::SimTime;

fn main() {
    let shape = Shape::from_args();
    let mut report = Report::new("analysis");
    let store = &shape.store;
    let open = || SegmentSet::open(store).expect("the captured store opens");

    // Read side, query by query, as `vgv` issues them.
    let info = open().source_info();
    let (t_min, t_end) = (info.t_min.as_nanos(), info.t_end.as_nanos());
    // The same window the runner's `vgv slice` children use: the final 2 %.
    let t0 = SimTime::from_nanos(t_min + (t_end - t_min) / 50 * 49);
    let t1 = SimTime::from_nanos(t_end);
    let rank = (shape.seed % shape.processes as u64) as u32;
    let mut read = |name: &str, f: &mut dyn FnMut(&mut SegmentSet) -> usize| {
        let (bytes, secs) = report.spans.span("analysis", name, |_| f(&mut open()));
        assert!(bytes > 0, "{name} produced an empty report");
        (name.to_string(), secs)
    };
    let reads = [
        read("info", &mut |s| info_report(s).len()),
        read("ranks", &mut |s| ranks_report(s).len()),
        read("top", &mut |s| {
            top_report(s, 20, ProfileOptions::default())
                .expect("top")
                .len()
        }),
        read("comm", &mut |s| comm_report(s).expect("comm").len()),
        read("slice", &mut |s| {
            slice_report(s, t0, t1, None, 96).expect("slice").0.len()
        }),
        read("slice_rank", &mut |s| {
            slice_report(s, t0, t1, Some(rank), 96)
                .expect("slice")
                .0
                .len()
        }),
    ];
    let (checked, fsck_s) = report
        .spans
        .span("analysis", "fsck", |_| fsck(store).expect("fsck"));
    assert!(checked.is_clean(), "the captured store is not clean");
    for (name, secs) in reads {
        report.value(&format!("read_{name}_s"), secs);
    }
    report.value("read_fsck_s", fsck_s);

    // Decode everything, then encode it all again.
    let (trace, decode_s) = report.spans.span("analysis", "decode_all", |_| {
        StoreReader::open(store)
            .expect("open")
            .read_all()
            .expect("read_all")
    });
    let events = trace.events.len() as f64;
    let copy = shape.dir.join("analysis.vgvs");
    let (stats, encode_s) = report.spans.span("analysis", "encode_all", |_| {
        write_store_from_trace(&trace, &copy, StoreOptions::default()).expect("write")
    });
    report.value("events", events);
    report.value("analysis.decode_ns_per_event", decode_s * 1e9 / events);
    report.value("analysis.encode_ns_per_event", encode_s * 1e9 / events);
    assert_eq!(stats.events, info.events, "the copy holds every event");
    report.emit();
}
