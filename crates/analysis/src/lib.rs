//! # dynprof-analysis — postmortem trace analysis
//!
//! The VGV GUI's analysis layer, reimplemented as a library (paper §3.1,
//! Fig 4) and rebuilt around a scalable trace store: per-function
//! profiles with inclusive/exclusive virtual time and load-imbalance
//! metrics, trace-volume accounting (the paper's motivating "2 MB/s per
//! processor" problem), communication statistics, and the main time-line
//! display rendered as ASCII art.
//!
//! ## One trace format
//!
//! Traces live on disk as `VGVS` stores ([`store`]): fixed-size per-rank
//! chunks behind a footer index, each chunk checksummed, so a query
//! decodes only the chunks overlapping it and memory is `O(chunk)`.
//! [`store::StoreWriter`] is what `dynprof trace=` streams into.
//!
//! The analyses consume **event streams**, not materialized traces:
//! [`ProfileBuilder`], [`TimelineBuilder`] and [`CommStats::push`] accept
//! events one at a time, so a million-rank store never has to fit in
//! memory. The `Trace`-taking entry points ([`Profile::from_trace`],
//! [`render`], [`CommStats::from_trace`]) remain as thin wrappers.
//!
//! ## Streaming round trip
//!
//! ```
//! use dynprof_analysis::store::{StoreOptions, StoreReader, StoreWriter};
//! use dynprof_analysis::{Profile, ProfileOptions};
//! use dynprof_sim::SimTime;
//! use dynprof_vt::{Event, VtFuncId};
//!
//! let dir = std::env::temp_dir().join("dynprof-doctest");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join(format!("lib-{}.vgvs", std::process::id()));
//!
//! let mut w = StoreWriter::create(&path, "demo", StoreOptions { chunk_events: 8 }).unwrap();
//! w.set_functions(vec!["work".to_string()]);
//! for i in 0..32u64 {
//!     let t0 = SimTime::from_micros(10 * i);
//!     w.append(&Event::FuncEnter { t: t0, rank: 0, thread: 0, func: VtFuncId(0) });
//!     w.append(&Event::FuncExit {
//!         t: t0 + SimTime::from_micros(7),
//!         rank: 0,
//!         thread: 0,
//!         func: VtFuncId(0),
//!     });
//! }
//! let stats = w.finish().unwrap();
//! assert!(stats.chunks > 1, "multiple chunks written");
//!
//! let mut r = StoreReader::open(&path).unwrap();
//! let profile = Profile::from_store(&mut r, ProfileOptions::default()).unwrap();
//! let hot = profile.hot_functions();
//! assert_eq!(profile.name(hot[0].0), "work");
//! assert_eq!(hot[0].1.count, 32);
//! std::fs::remove_file(&path).ok();
//! ```

#![warn(missing_docs)]

mod comm;
mod dense;
mod error;
mod profile;
mod query;
pub mod store;
mod timeline;

pub use comm::CommStats;
pub use error::TraceError;
pub use profile::{
    suspension_windows, trace_volume, FuncProfile, Profile, ProfileBuilder, ProfileOptions,
    TraceVolume,
};
pub use query::{
    comm_report, info_report, ranks_report, slice_report, top_report, write_comm_report,
};
pub use timeline::{render, TimelineBuilder, TimelineOptions};
