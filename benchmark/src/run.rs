//! The end-to-end measurement: drive the built `dynprof` and `vgv`
//! binaries, one child at a time, and check everything they write.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::child::{self, ChildRun};
use crate::metrics::Values;
use crate::parse;
use crate::stats;
use crate::workloads::{Focus, Workload, SCRIPT};

/// Every this-many-th sample of the timed loop is of the kind the workload
/// does not focus on. At 3, the 1152-rank shapes get about ten samples of
/// the other kind in a 20 s run; at 4 they got six, and the lower quartile
/// of six samples spread 28 % over ten runs on a bad day.
const OTHER_EVERY: usize = 3;

/// The seven `vgv` children of one query set, in the order they run.
pub const QUERIES: [&str; 7] = [
    "info",
    "ranks",
    "top",
    "comm",
    "slice",
    "slice_rank",
    "fsck",
];

/// Operations are child processes. One fails when it exits non-zero or
/// when what it wrote breaks an invariant every correct version satisfies.
#[derive(Debug, Default)]
pub struct Ops {
    /// Children run.
    pub attempted: u64,
    /// Children that failed.
    pub failed: u64,
    /// What was wrong, first few only.
    pub violations: Vec<String>,
}

impl Ops {
    /// Account one child; `problems` empty means it passed.
    fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.violations.len() < 16 {
                    self.violations.push(format!("{what}: {p}"));
                }
            }
        }
    }
}

/// Multiplicative word hash (FNV-1a's shape over 64-bit words): cheap
/// enough to fingerprint a 16 MB report in milliseconds, and the compute
/// half of the host-speed sentinel.
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

const HASH_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Hash a file through a fixed 64 KB buffer (never the whole file in
/// memory: see [`child::run`] on why the runner stays small).
fn digest_file(path: &Path, mut h: u64) -> Result<(u64, u64), String> {
    let mut f = fs::File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let mut buf = [0u8; 64 * 1024];
    let mut len = 0u64;
    loop {
        let n = f
            .read(&mut buf)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        if n == 0 {
            return Ok((mix(h, len), len));
        }
        len += n as u64;
        let mut words = buf[..n].chunks_exact(8);
        for w in &mut words {
            h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            h = mix(h, u64::from(b));
        }
    }
}

/// The host-speed witness: a fixed piece of work timed now and then
/// between samples. Its lower quartile says how fast the host was during
/// this run; its upper quartile over its lower says whether it was steady.
/// (Not median over minimum: on the 2-vCPU review host the fastest of
/// twenty samples sits 13-18 % under the median in every run, quiet or
/// not, so that ratio flags everything.)
///
/// The work is [`sentinel_work`] in a child of the benchmark's own binary,
/// for two reasons. It should suffer what a session suffers — process
/// start, page faults, memory bandwidth — and a loop over a buffer small
/// enough to keep inside the runner does not. And a 32 MB buffer inside
/// the runner would put a 32 MB floor under every child's peak RSS.
pub struct Sentinel {
    exe: PathBuf,
    dir: PathBuf,
    last: Option<Instant>,
    /// Samples, milliseconds.
    pub samples_ms: Vec<f64>,
}

/// What `benchmark sentinel` does: fill 32 MB and hash it once.
pub fn sentinel_work() -> u64 {
    let buf: Vec<u64> = (0..4 * 1024 * 1024).collect();
    buf.iter().fold(HASH_SEED, |h, &w| mix(h, w))
}

impl Sentinel {
    /// Seconds between samples.
    const EVERY_S: f64 = 1.0;
    /// A run is noisy when the sentinel's upper quartile exceeds its lower
    /// by more than this share: for a quarter of the run the host was that
    /// much slower than at its best. Over the 80 runs of the two quiet
    /// sets in the README the ratio had a median of 9 % and passed 15 % in
    /// four; a run taken on a bad day read 22 %.
    pub const NOISY_SPREAD: f64 = 0.15;

    /// A sentinel that runs this very binary in `dir` and has not sampled yet.
    pub fn new(dir: &Path) -> Result<Sentinel, String> {
        Ok(Sentinel {
            exe: std::env::current_exe()
                .map_err(|e| format!("locating the benchmark binary: {e}"))?,
            dir: dir.to_path_buf(),
            last: None,
            samples_ms: Vec::new(),
        })
    }

    /// Take a sample if none was taken in the last second.
    pub fn tick(&mut self) -> Result<(), String> {
        if self
            .last
            .is_some_and(|t| t.elapsed().as_secs_f64() < Self::EVERY_S)
        {
            return Ok(());
        }
        let run = child::run(
            &self.exe,
            &["sentinel".to_string()],
            &self.dir,
            &self.dir.join("sentinel.out"),
        )?;
        if !run.ok {
            return Err("the sentinel child failed".to_string());
        }
        self.samples_ms.push(run.wall_s * 1e3);
        self.last = Some(Instant::now());
        Ok(())
    }

    /// Lower quartile, milliseconds.
    pub fn p25_ms(&self) -> f64 {
        stats::p25(&self.samples_ms)
    }

    /// Upper quartile over lower quartile, minus one.
    pub fn spread(&self) -> f64 {
        let s = stats::sorted(&self.samples_ms);
        stats::quantile(&s, 0.75) / stats::quantile(&s, 0.25) - 1.0
    }

    /// Whether this run's host-time numbers should be retaken.
    pub fn noisy(&self) -> bool {
        self.spread() > Self::NOISY_SPREAD
    }
}

/// The simulated facts of one session, parsed from what it wrote.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionFacts {
    /// `application time`.
    pub app_time_s: f64,
    /// Sum of the timefile rows plus application time: simulated time from
    /// `dynprof` start to application end.
    pub sim_session_time: f64,
    /// Size of the `.vgvs` store.
    pub store_bytes: u64,
    /// Fingerprint of summary, timefile and store.
    pub digest: u64,
}

/// One query set: seven `vgv` children over one store.
#[derive(Clone, Debug)]
pub struct QuerySet {
    /// Summed wall time of the seven children.
    pub wall_s: f64,
    /// Largest child peak RSS.
    pub peak_rss_mb: f64,
    /// Wall time per child, in [`QUERIES`] order.
    pub child_wall_s: [f64; 7],
    /// What `vgv info` said.
    pub info: parse::StoreInfo,
    /// Chunks the two slices decoded.
    pub chunks_decoded: u64,
    /// Chunks the two slices skipped through the index.
    pub chunks_skipped: u64,
}

/// Everything one run measured, before it is reduced to metrics.
pub struct Measured {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The session children that count (see [`Focus`]).
    pub sessions: Vec<ChildRun>,
    /// The query sets that count.
    pub queries: Vec<QuerySet>,
    /// Simulated facts of the workload's session.
    pub facts: SessionFacts,
    /// `application time` of the `policy=none` reference.
    pub ref_app_time_s: f64,
    /// Directory of the last set-up: its `run.vgvs` is the captured store
    /// the traced run reads.
    pub dir: PathBuf,
}

/// One run's inputs.
pub struct Runner<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// `cpus=` in effect (the workload's, or its quick size).
    pub cpus: u32,
    /// `seed=` for every session; also picks the `--rank` of the ranked slice.
    pub seed: u64,
    /// Directory holding `dynprof` and `vgv`.
    pub bin_dir: PathBuf,
    /// Fresh directory this run may fill; the caller removes it.
    pub tmp: PathBuf,
    /// Child accounting.
    pub ops: Ops,
    /// Host-speed witness.
    pub sentinel: Sentinel,
    /// Facts of the first session and digest of the first query set: every
    /// later sample of the run must reproduce them exactly.
    first_session: Option<SessionFacts>,
    first_queries: Option<u64>,
}

impl<'a> Runner<'a> {
    /// A runner for `workload` at `cpus`.
    pub fn new(
        workload: &'a Workload,
        cpus: u32,
        seed: u64,
        bin_dir: PathBuf,
        tmp: PathBuf,
    ) -> Result<Runner<'a>, String> {
        Ok(Runner {
            workload,
            cpus,
            seed,
            bin_dir,
            sentinel: Sentinel::new(&tmp)?,
            tmp,
            ops: Ops::default(),
            first_session: None,
            first_queries: None,
        })
    }

    fn session_args(&self, cpus: u32, policy: &str, tag: &str) -> Vec<String> {
        let w = self.workload;
        let mut args = vec![
            "script.dp".to_string(),
            format!("{tag}.summary.txt"),
            format!("{tag}.timefile.txt"),
            w.app.to_string(),
            format!("cpus={cpus}"),
            format!("policy={policy}"),
            format!("seed={}", self.seed),
            format!("trace={tag}.vgvs"),
        ];
        if let Some(scale) = w.scale {
            args.push(format!("scale={scale}"));
        }
        args
    }

    /// Run one `dynprof` session in `dir`, writing `<tag>.*`, and check its
    /// outputs. `policy` is the workload's own or `none` for the reference.
    /// A `repeatable` session must also reproduce the facts of the first
    /// such session of this run: same seed, same program, so the same
    /// simulated results and the same store, byte for byte.
    pub fn session(
        &mut self,
        dir: &Path,
        cpus: u32,
        policy: &str,
        tag: &str,
        repeatable: bool,
    ) -> Result<(ChildRun, Option<SessionFacts>), String> {
        let w = self.workload;
        let run = child::run(
            &self.bin_dir.join("dynprof"),
            &self.session_args(cpus, policy, tag),
            dir,
            &dir.join(format!("{tag}.stdout")),
        )?;
        let what = format!("dynprof {} cpus={cpus} policy={policy}", w.app);
        let mut problems = Vec::new();
        let facts = if run.ok {
            self.check_session(dir, cpus, policy, tag, &mut problems)
        } else {
            problems.push("non-zero exit".to_string());
            None
        };
        if let (true, Some(f)) = (repeatable, &facts) {
            let first = self.first_session.get_or_insert_with(|| f.clone());
            if first != f {
                problems.push(format!(
                    "outputs differ from this run's first session: {f:?} vs {first:?}"
                ));
            }
        }
        let facts = facts.filter(|_| problems.is_empty());
        self.ops.record(&what, problems);
        Ok((run, facts))
    }

    fn check_session(
        &self,
        dir: &Path,
        cpus: u32,
        policy: &str,
        tag: &str,
        problems: &mut Vec<String>,
    ) -> Option<SessionFacts> {
        let w = self.workload;
        let read = |name: String| {
            fs::read_to_string(dir.join(&name)).map_err(|e| format!("reading {name}: {e}"))
        };
        let parsed = read(format!("{tag}.summary.txt"))
            .and_then(|t| parse::summary(&t))
            .and_then(|s| Ok((s, parse::timefile(&read(format!("{tag}.timefile.txt"))?)?)));
        let (summary, rows) = match parsed {
            Ok(v) => v,
            Err(e) => {
                problems.push(e);
                return None;
            }
        };
        let dynamic = policy == "dynamic";
        let pairs = if dynamic { w.probe_pairs(cpus) } else { 0 };
        if summary.probe_pairs != pairs {
            problems.push(format!(
                "probe pairs {} != subset x processes = {pairs}",
                summary.probe_pairs
            ));
        }
        if summary.warnings > 0 {
            problems.push(format!(
                "{} warning line(s) in the summary",
                summary.warnings
            ));
        }
        if summary.app_time_s <= 0.0 {
            problems.push("application time is zero".to_string());
        }
        if policy != "none" && summary.top_rows == 0 {
            problems.push("summary has an empty function table".to_string());
        }
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        let expected: &[&str] = if dynamic {
            &["create", "start-to-callback", "instrument", "release"]
        } else {
            &[]
        };
        if labels != expected {
            problems.push(format!("timefile rows {labels:?}, expected {expected:?}"));
        }
        let mut digest = HASH_SEED;
        let mut store_bytes = 0;
        for ext in ["summary.txt", "timefile.txt", "vgvs"] {
            match digest_file(&dir.join(format!("{tag}.{ext}")), digest) {
                Ok((h, len)) => {
                    digest = h;
                    store_bytes = len;
                }
                Err(e) => {
                    problems.push(e);
                    return None;
                }
            }
        }
        if store_bytes == 0 {
            problems.push("empty store".to_string());
        }
        Some(SessionFacts {
            app_time_s: summary.app_time_s,
            sim_session_time: rows.iter().map(|r| r.duration_s).sum::<f64>() + summary.app_time_s,
            store_bytes,
            digest,
        })
    }

    fn workload_session(&mut self, dir: &Path) -> Result<(ChildRun, Option<SessionFacts>), String> {
        self.session(dir, self.cpus, self.workload.policy, "run", true)
    }

    /// Run the seven `vgv` children over `dir/run.vgvs` and check each
    /// report. Returns `None` when a report could not be used.
    pub fn query_set(&mut self, dir: &Path) -> Result<Option<QuerySet>, String> {
        let w = self.workload;
        let processes = w.processes(self.cpus);
        let vgv = self.bin_dir.join("vgv");
        let mut wall = [0.0; 7];
        let mut peak_rss_mb = 0.0f64;
        let mut digest = HASH_SEED;
        let mut usable = true;
        let mut info: Option<parse::StoreInfo> = None;
        let (mut decoded, mut skipped, mut slice_events) = (0, 0, 0);

        for (i, &q) in QUERIES.iter().enumerate() {
            let mut args: Vec<String> = vec![
                q.trim_end_matches("_rank").to_string(),
                "run.vgvs".to_string(),
            ];
            if q.starts_with("slice") {
                // The final 2 % of the store's span holds the application
                // body; the middle is the instrumentation gap, and empty.
                let Some(span) = &info else { break };
                let t1 = span.t_end_s;
                let t0 = span.t_min_s + 0.98 * (t1 - span.t_min_s);
                let ns = |s: f64| format!("{}", (s * 1e9).round() as u64);
                args.extend(["--t0".to_string(), ns(t0), "--t1".to_string(), ns(t1)]);
                if q == "slice_rank" {
                    args.extend(["--rank".to_string(), (self.seed % processes).to_string()]);
                }
            }
            let out = dir.join(format!("{q}.txt"));
            let run = child::run(&vgv, &args, dir, &out)?;
            wall[i] = run.wall_s;
            peak_rss_mb = peak_rss_mb.max(run.peak_rss_mb);
            let mut problems = Vec::new();
            if !run.ok {
                problems.push("non-zero exit".to_string());
            }
            match digest_file(&out, digest) {
                Ok((h, len)) => {
                    digest = h;
                    if len == 0 {
                        problems.push("empty report".to_string());
                    }
                }
                Err(e) => problems.push(e),
            }
            // Only `comm` is large (ranks squared); its fingerprint and
            // exit status are its check. The others are read and parsed.
            if run.ok && q != "comm" {
                let text = fs::read_to_string(&out)
                    .map_err(|e| format!("reading {}: {e}", out.display()))?;
                let checked: Result<(), String> = (|| {
                    let events = info.as_ref().map(|i| i.events);
                    match q {
                        "info" => {
                            let i = parse::info(&text)?;
                            if i.ranks != processes {
                                return Err(format!(
                                    "store has {} ranks, session ran {processes} processes",
                                    i.ranks
                                ));
                            }
                            if i.events == 0 || i.functions == 0 || i.t_end_s <= i.t_min_s {
                                return Err(format!("degenerate store: {i:?}"));
                            }
                            let on_disk = fs::metadata(dir.join("run.vgvs"))
                                .map(|m| m.len())
                                .unwrap_or(0);
                            if i.bytes != on_disk {
                                return Err(format!(
                                    "footer says {} bytes, file has {on_disk}",
                                    i.bytes
                                ));
                            }
                            info = Some(i);
                        }
                        "ranks" => {
                            let (rows, sum) = parse::ranks(&text)?;
                            if rows != processes || Some(sum) != events {
                                return Err(format!("{rows} ranks with {sum} events, info said {processes} and {events:?}"));
                            }
                        }
                        "top" => {
                            if parse::top_rows(&text) == 0 {
                                return Err("empty function table".to_string());
                            }
                        }
                        "slice" | "slice_rank" => {
                            let s = parse::slice(&text)?;
                            let rows = if q == "slice" { processes } else { 1 };
                            if s.rows as u64 != rows || s.events == 0 {
                                return Err(format!("{} rows, {} events; expected {rows} rows of the application body", s.rows, s.events));
                            }
                            if q == "slice" {
                                slice_events = s.events;
                            } else if s.events > slice_events {
                                return Err(format!(
                                    "one rank has {} events, all ranks {slice_events}",
                                    s.events
                                ));
                            }
                            decoded += s.chunks_decoded;
                            skipped += s.chunks_skipped;
                        }
                        "fsck" => {
                            let verified = parse::fsck_clean(&text)?;
                            if Some(verified) != events {
                                return Err(format!(
                                    "verified {verified} events, info said {events:?}"
                                ));
                            }
                        }
                        _ => unreachable!("QUERIES is fixed"),
                    }
                    Ok(())
                })();
                problems.extend(checked.err());
            }
            if i + 1 == QUERIES.len() && *self.first_queries.get_or_insert(digest) != digest {
                problems
                    .push("the set's reports differ from this run's first query set".to_string());
            }
            usable &= problems.is_empty();
            self.ops.record(&format!("vgv {q}"), problems);
        }
        let Some(info) = info.filter(|_| usable) else {
            return Ok(None);
        };
        Ok(Some(QuerySet {
            wall_s: wall.iter().sum(),
            peak_rss_mb,
            child_wall_s: wall,
            info,
            chunks_decoded: decoded,
            chunks_skipped: skipped,
        }))
    }

    /// Set up `reps` times, then run the timed loop for `seconds` (or, when
    /// `samples` is given, for exactly that many samples).
    pub fn measure(
        &mut self,
        reps: usize,
        seconds: f64,
        samples: Option<usize>,
    ) -> Result<Measured, String> {
        let w = self.workload;
        let mut setup_s = Vec::new();
        let mut warm_sessions = Vec::new();
        let mut warm_queries = Vec::new();
        let mut ref_app_time_s = None;
        let mut dir = self.tmp.clone();

        // Set-up, as a user would pay it before the first measured
        // operation: directory, script, the policy=none reference the
        // overhead is relative to, one session, one verified query set.
        for rep in 0..reps {
            self.sentinel.tick()?;
            let t = Instant::now();
            dir = self.tmp.join(format!("setup{rep}"));
            fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
            fs::write(dir.join("script.dp"), SCRIPT).map_err(|e| format!("writing script: {e}"))?;
            let (_, reference) = self.session(&dir, self.cpus, "none", "ref", false)?;
            let (run, facts) = self.workload_session(&dir)?;
            let queries = self.query_set(&dir)?;
            setup_s.push(t.elapsed().as_secs_f64());
            let (Some(reference), Some(_), Some(queries)) = (reference, facts, queries) else {
                return Err(format!("set-up failed: {:?}", self.ops.violations));
            };
            ref_app_time_s = Some(reference.app_time_s);
            warm_sessions.push(run);
            warm_queries.push(queries);
        }
        let facts = self
            .first_session
            .clone()
            .ok_or("no set-up repetition ran")?;

        // The timed loop. Two samples in three are of the workload's own
        // kind; the third is of the other kind, so that every workload
        // has several samples behind every metric it reports. Of the
        // set-up's samples, the one of the workload's own kind is the
        // discarded warm-up and the other is kept.
        let (mut sessions, mut queries) = match w.focus {
            Focus::Sessions => (Vec::new(), warm_queries),
            Focus::Queries => (warm_sessions, Vec::new()),
        };
        let t_loop = Instant::now();
        let mut tries = 0;
        while match samples {
            Some(k) => tries < k,
            None => tries == 0 || t_loop.elapsed().as_secs_f64() < seconds,
        } {
            tries += 1;
            self.sentinel.tick()?;
            if (w.focus == Focus::Sessions) != (tries % OTHER_EVERY == 0) {
                let (run, facts) = self.workload_session(&dir)?;
                sessions.extend(facts.map(|_| run));
            } else {
                queries.extend(self.query_set(&dir)?);
            }
        }
        if sessions.is_empty() || queries.is_empty() {
            return Err(format!("no usable samples: {:?}", self.ops.violations));
        }
        Ok(Measured {
            setup_s,
            sessions,
            queries,
            facts,
            ref_app_time_s: ref_app_time_s.ok_or("no reference session")?,
            dir,
        })
    }
}

impl Measured {
    /// Wall times of the counted sessions.
    pub fn session_walls(&self) -> Vec<f64> {
        self.sessions.iter().map(|r| r.wall_s).collect()
    }

    /// Wall times of the counted query sets.
    pub fn query_walls(&self) -> Vec<f64> {
        self.queries.iter().map(|q| q.wall_s).collect()
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self) -> Values {
        let session_wall_s = stats::p25(&self.session_walls());
        let rss: Vec<f64> = self.sessions.iter().map(|r| r.peak_rss_mb).collect();
        let query_rss: Vec<f64> = self.queries.iter().map(|q| q.peak_rss_mb).collect();
        let mut v = Values::default();
        v.set("setup_s", stats::median(&self.setup_s));
        v.set("session_wall_s", session_wall_s);
        v.set(
            "trace_events_per_s",
            self.queries[0].info.events as f64 / session_wall_s,
        );
        v.set("session_peak_rss_mb", stats::median(&rss));
        v.set("store_bytes", self.facts.store_bytes as f64);
        v.set(
            "sim_app_time_pct",
            100.0 * self.facts.app_time_s / self.ref_app_time_s,
        );
        v.set("sim_session_time", self.facts.sim_session_time);
        v.set("query_wall_s", stats::p25(&self.query_walls()));
        v.set("query_peak_rss_mb", stats::median(&query_rss));
        v
    }
}
