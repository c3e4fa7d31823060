//! Determinism source lint.
//!
//! The entire experiment pipeline depends on the simulator being
//! bit-for-bit reproducible: the same seed must produce the same figures
//! on every run. A single `Instant::now()` in the wrong place silently
//! breaks that. This is a token-level lint — comments and string literals
//! are stripped, then each remaining line is matched against a small set
//! of banned constructs:
//!
//! * `Instant::now` / `SystemTime` — wall clocks in simulation code;
//! * `thread::sleep` — real sleeping in simulation code;
//! * `rand::` — ambient randomness instead of `dynprof_sim::rng`;
//! * iterating a `HashMap`/`HashSet` in a file that produces figure/JSON
//!   output, without sorting — nondeterministic output order.
//!
//! A second, scope-aware pass enforces the engine's locking discipline
//! (see `crates/sim/src/engine.rs`, whose one mutex is `inner`):
//!
//! * `unpark-under-lock` — calling `.unpark()` while an `inner` guard is
//!   live wakes a thread that immediately blocks on the mutex we still
//!   hold (an extra context switch plus a futex round trip per event);
//! * `clock-under-lock` — the bodies of `Proc::now` and `Proc::advance`
//!   acquire nothing (`.lock()`, `.read()`, `.write()`): a process owns
//!   its clock, and every timestamp and every charge of every simulated
//!   probe goes through those two methods.
//!
//! Three architectural rules are path-scoped:
//!
//! * `image-construction` — the shipped (non-test) code under
//!   `crates/core/src` builds process images in one place: outside
//!   `AppSpec::build_image` and `session::process_images` it names none of
//!   `Image::new`, `build_image`, `ImageBuilder`. Every rank's image is
//!   one overlay on the app's shared program, wired to the trace library
//!   the same way; a second construction site is where that stops holding.
//! * `trace-readback` — the shipped (non-test) code under
//!   `crates/apps/src` calls none of `build_trace`, `with_rank_events`,
//!   `write_store_from_vt`: `dynprof` streams events into its capture
//!   sink while the session runs and never reads the trace back out of
//!   the library, which would hold all of it in memory at once.
//! * `query-dense-state` — the shipped (non-test) code of
//!   `crates/analysis/src/{timeline,comm}.rs` names no `BTreeMap`, and
//!   `write_matrix` in `comm.rs` no `format!`: queries keep per-rank state
//!   in dense arrays and stream the comm matrix at decode speed.
//!
//! Audited exceptions live in an allowlist file (`dynlint.allow`), one
//! `path-suffix rule` pair per line. An entry that suppresses no finding
//! anywhere in the linted tree is itself an error (`stale-allow`): the
//! code it excused is gone, and a dead exception would silently excuse
//! whatever is written there next.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use dynprof_sim::hb::{Finding, Severity};

/// One audited exception: findings for `rule` in files whose path ends
/// with `path_suffix` are suppressed.
#[derive(Clone, Debug)]
pub struct Allow {
    /// Path suffix the exception applies to (e.g. `crates/sim/src/engine.rs`).
    pub path_suffix: String,
    /// Rule name (e.g. `instant-now`) or `*` for every rule.
    pub rule: String,
}

/// Parse an allowlist file: `path-suffix rule` per line, `#` comments.
pub fn parse_allowlist(text: &str) -> Vec<Allow> {
    text.lines()
        .filter_map(|line| {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                return None;
            }
            let mut it = line.split_whitespace();
            let path_suffix = it.next()?.to_string();
            let rule = it.next()?.to_string();
            Some(Allow { path_suffix, rule })
        })
        .collect()
}

/// Index of the first allowlist entry covering `rule` in `path`.
fn allowed(allow: &[Allow], path: &str, rule: &str) -> Option<usize> {
    allow
        .iter()
        .position(|a| path.ends_with(&a.path_suffix) && (a.rule == "*" || a.rule == rule))
}

/// Blank out comments and string literals, preserving line structure so
/// reported line numbers match the source.
pub fn strip_code(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let b: Vec<char> = src.chars().collect();
    let mut i = 0;
    let n = b.len();
    while i < n {
        let c = b[i];
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            // Line comment.
            while i < n && b[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && i + 1 < n && b[i + 1] == '*' {
            // Block comment (nested, as in Rust).
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        out.push('\n');
                    }
                    i += 1;
                }
            }
        } else if c == '"' {
            // String literal (handles escapes; raw strings are close
            // enough for a token lint since `"` still delimits them).
            out.push(' ');
            i += 1;
            while i < n && b[i] != '"' {
                if b[i] == '\\' {
                    i += 1;
                }
                if i < n {
                    if b[i] == '\n' {
                        out.push('\n');
                    }
                    i += 1;
                }
            }
            i += 1;
        } else if c == '\'' && i + 2 < n && (b[i + 1] == '\\' || b[i + 2] == '\'') {
            // Char literal ('x' or '\n'); lifetimes ('a) fall through.
            out.push(' ');
            i += 1;
            while i < n && b[i] != '\'' {
                if b[i] == '\\' {
                    i += 1;
                }
                i += 1;
            }
            i += 1;
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

struct Rule {
    /// `lint:<rule name>`; the allowlist names the rule without the prefix.
    detector: &'static str,
    token: &'static str,
    why: &'static str,
}

const RULES: &[Rule] = &[
    Rule {
        detector: "lint:instant-now",
        token: "Instant::now",
        why: "wall clock in simulation code breaks reproducibility",
    },
    Rule {
        detector: "lint:system-time",
        token: "SystemTime",
        why: "wall clock in simulation code breaks reproducibility",
    },
    Rule {
        detector: "lint:thread-sleep",
        token: "thread::sleep",
        why: "real sleeping stalls the host without moving the virtual clock",
    },
    Rule {
        detector: "lint:rand-crate",
        token: "rand::",
        why: "ambient randomness: use dynprof_sim::rng instead",
    },
];

/// Does `hay` contain `needle` not immediately preceded by an identifier
/// character? Guards against suffix matches inside longer identifiers
/// (`my_rand::` must not match `rand::`) while still catching qualified
/// paths (`std::thread::sleep` matches `thread::sleep`).
fn token_match(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let abs = from + pos;
        let pre = hay[..abs].chars().next_back();
        if !pre.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            return true;
        }
        from = abs + needle.len();
    }
    false
}

/// Lint one file's source. `path` is the repo-relative display path used
/// in messages and matched against the allowlist.
pub fn lint_source(path: &str, src: &str, allow: &[Allow]) -> Vec<Finding> {
    lint_source_marking(path, src, allow, &mut vec![false; allow.len()])
}

/// [`lint_source`], setting `used[i]` for every allowlist entry `i` that
/// suppressed a finding.
fn lint_source_marking(path: &str, src: &str, allow: &[Allow], used: &mut [bool]) -> Vec<Finding> {
    let stripped = strip_code(src);
    let mut out = Vec::new();
    for (lineno, line) in stripped.lines().enumerate() {
        for rule in RULES {
            if token_match(line, rule.token) {
                out.push(Finding {
                    severity: Severity::Error,
                    detector: rule.detector,
                    message: format!("{path}:{}: `{}` — {}", lineno + 1, rule.token, rule.why),
                });
            }
        }
    }
    out.extend(lint_hash_iteration(path, &stripped));
    out.extend(lint_lock_discipline(path, &stripped));
    out.extend(lint_clock_under_lock(path, &stripped));
    out.extend(lint_trace_readback(path, &stripped));
    out.extend(lint_image_construction(path, &stripped));
    out.extend(lint_query_dense_state(path, &stripped));
    out.retain(|f| {
        let rule = f.detector.strip_prefix("lint:").unwrap_or(f.detector);
        match allowed(allow, path, rule) {
            Some(i) => {
                used[i] = true;
                false
            }
            None => true,
        }
    });
    out
}

/// The `{ … }` block opening at or after byte `from`, as a byte range of
/// `src` (braces included). Comments and literals are already stripped,
/// so every brace counts.
fn brace_block(src: &str, from: usize) -> Option<std::ops::Range<usize>> {
    let open = from + src[from..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in src[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open..open + i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Methods of `Proc` that read or charge the process's own clock and so
/// must take no lock.
const LOCK_FREE_PROC_METHODS: [&str; 2] = ["now", "advance"];

/// In a file that implements the engine's `Proc`, the bodies of
/// [`LOCK_FREE_PROC_METHODS`] must contain no lock acquisition. A method
/// that has gone missing is reported too: a rename must move the rule
/// with it, not switch it off.
fn lint_clock_under_lock(path: &str, stripped: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(block) = stripped
        .find("impl Proc {")
        .and_then(|at| brace_block(stripped, at))
    else {
        return out;
    };
    let line_of = |at: usize| stripped[..at].matches('\n').count() + 1;
    let mut error = |at: usize, what: String| {
        out.push(Finding {
            severity: Severity::Error,
            detector: "lint:clock-under-lock",
            message: format!("{path}:{}: {what}", line_of(at)),
        });
    };
    for method in LOCK_FREE_PROC_METHODS {
        let header = format!(" fn {method}(");
        let body = stripped[block.clone()]
            .find(&header)
            .and_then(|at| brace_block(stripped, block.start + at));
        let Some(body) = body else {
            error(
                block.start,
                format!("`Proc::{method}` not found — the rule has nothing to check"),
            );
            continue;
        };
        for acquire in [".lock()", ".read()", ".write()"] {
            for (at, _) in stripped[body.clone()].match_indices(acquire) {
                error(
                    body.start + at,
                    format!(
                        "`{acquire}` inside `Proc::{method}` — a process owns its clock; \
                         reading or charging it takes no lock"
                    ),
                );
            }
        }
    }
    out
}

/// Calls that hand a caller the whole trace the library has buffered.
const TRACE_READBACKS: [&str; 3] = ["build_trace", "with_rank_events", "write_store_from_vt"];

/// `dynprof` never holds its trace: in files under `crates/apps/src`,
/// everything before the first `#[cfg(test)]` must be free of
/// [`TRACE_READBACKS`] (tests may read a trace back to check it).
fn lint_trace_readback(path: &str, stripped: &str) -> Vec<Finding> {
    if !path.contains("crates/apps/src/") {
        return Vec::new();
    }
    let shipped = stripped.split("#[cfg(test)]").next().unwrap_or("");
    let mut out = Vec::new();
    for (lineno, line) in shipped.lines().enumerate() {
        for call in TRACE_READBACKS {
            if token_match(line, call) {
                out.push(Finding {
                    severity: Severity::Error,
                    detector: "lint:trace-readback",
                    message: format!(
                        "{path}:{}: `{call}` — dynprof streams its trace into the capture \
                         sink; reading it back out of the library holds all of it at once",
                        lineno + 1
                    ),
                });
            }
        }
    }
    out
}

/// Names that construct a process image.
const IMAGE_CONSTRUCTORS: [&str; 3] = ["Image::new", "build_image", "ImageBuilder"];

/// The two functions of `crates/core/src` that may name them.
const IMAGE_BUILDERS: [&str; 2] = ["fn process_images(", "pub fn build_image("];

/// A session builds its images in one place: in files under
/// `crates/core/src`, everything before the first `#[cfg(test)]` and
/// outside the bodies of [`IMAGE_BUILDERS`] must be free of
/// [`IMAGE_CONSTRUCTORS`]. `session.rs` without a `process_images` is
/// reported too: a rename must move the rule with it, not switch it off.
fn lint_image_construction(path: &str, stripped: &str) -> Vec<Finding> {
    if !path.contains("crates/core/src/") {
        return Vec::new();
    }
    let shipped = stripped.split("#[cfg(test)]").next().unwrap_or("");
    let exempt: Vec<std::ops::Range<usize>> = IMAGE_BUILDERS
        .iter()
        .filter_map(|header| {
            let at = shipped.find(header)?;
            let line_start = shipped[..at].rfind('\n').map_or(0, |nl| nl + 1);
            Some(line_start..brace_block(shipped, at)?.end)
        })
        .collect();
    let mut out = Vec::new();
    let mut error = |lineno: usize, what: String| {
        out.push(Finding {
            severity: Severity::Error,
            detector: "lint:image-construction",
            message: format!("{path}:{lineno}: {what}"),
        });
    };
    if path.ends_with("session.rs") && !shipped.contains(IMAGE_BUILDERS[0]) {
        error(
            1,
            "`process_images` not found — the rule has nothing to check".to_string(),
        );
    }
    let mut at = 0;
    for (lineno, line) in shipped.split('\n').enumerate() {
        if !exempt.iter().any(|r| r.contains(&at)) {
            for name in IMAGE_CONSTRUCTORS {
                if token_match(line, name) {
                    error(
                        lineno + 1,
                        format!(
                            "`{name}` — a session builds its process images in \
                             `session::process_images` (through `AppSpec::build_image`) \
                             and nowhere else"
                        ),
                    );
                }
            }
        }
        at += line.len() + 1;
    }
    out
}

/// Queries run at decode speed: the shipped code of `timeline.rs` and
/// `comm.rs` names no `BTreeMap` (per-rank state lives in dense arrays),
/// and `write_matrix` no `format!` (the matrix streams its cells). A
/// `comm.rs` without `write_matrix` is a finding too: a rename must move
/// the rule with it.
fn lint_query_dense_state(path: &str, stripped: &str) -> Vec<Finding> {
    let files = [
        "crates/analysis/src/timeline.rs",
        "crates/analysis/src/comm.rs",
    ];
    if !files.iter().any(|f| path.ends_with(f)) {
        return Vec::new();
    }
    let shipped = stripped.split("#[cfg(test)]").next().unwrap_or("");
    let tree = "`BTreeMap` — a query keeps per-rank state in dense, rank-indexed arrays";
    let mut hits: Vec<(usize, &str)> = shipped
        .match_indices("BTreeMap")
        .map(|(at, _)| (at, tree))
        .collect();
    if path.ends_with("comm.rs") {
        let cell = "`format!` inside `write_matrix` — the matrix streams its cells";
        match shipped
            .find("fn write_matrix(")
            .and_then(|at| brace_block(shipped, at))
        {
            None => hits.push((
                0,
                "`write_matrix` not found — the rule has nothing to check",
            )),
            Some(body) => {
                let found = shipped[body.clone()].match_indices("format!");
                hits.extend(found.map(|(at, _)| (body.start + at, cell)));
            }
        }
    }
    let line_of = |at: usize| shipped[..at].matches('\n').count() + 1;
    let finding = |(at, what)| Finding {
        severity: Severity::Error,
        detector: "lint:query-dense-state",
        message: format!("{path}:{}: {what}", line_of(at)),
    };
    hits.into_iter().map(finding).collect()
}

/// One live `inner` guard tracked by the lock-discipline scanner.
struct Guard {
    name: String,
    /// Brace depth where the guard was bound; the guard dies for good
    /// when scanning exits this scope.
    bind_depth: usize,
    /// `Some(d)`: an explicit `drop(name)` was seen at depth `d`. The
    /// guard is dead while depth stays `>= d`, but *revives* when the
    /// scan leaves that block — a `drop` inside one `match` arm must not
    /// absolve a sibling arm where the guard is still held.
    suppressed_at: Option<usize>,
}

impl Guard {
    fn live(&self) -> bool {
        self.suppressed_at.is_none()
    }
}

/// Identifier bound by `let [mut] name = ...` on this line, if the lock
/// call at byte `pos` is part of such a binding. Temporaries
/// (`self.inner.lock().field`) return `None` — their guard dies at the
/// end of the statement and cannot overlap an `unpark`.
fn binding_name(line: &str, pos: usize) -> Option<String> {
    let trimmed = line.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    // The `=` must sit between the binding and the lock call.
    let eq = line.find('=')?;
    if name.is_empty() || eq > pos {
        return None;
    }
    Some(name)
}

/// Scope-aware scan for the engine's locking discipline: `unpark` calls
/// while an `inner` guard is held. Guards bound by `let` are tracked
/// through nested blocks; `drop(guard)` releases them for the remainder
/// of that block only, so a sibling `match` arm still sees the guard as
/// held.
fn lint_lock_discipline(path: &str, stripped: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut depth: usize = 0;
    let mut guards: Vec<Guard> = Vec::new();
    for (lineno, line) in stripped.lines().enumerate() {
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'{' {
                depth += 1;
                i += 1;
                continue;
            }
            if bytes[i] == b'}' {
                depth = depth.saturating_sub(1);
                guards.retain(|g| depth >= g.bind_depth);
                for g in &mut guards {
                    if g.suppressed_at.is_some_and(|d| depth < d) {
                        g.suppressed_at = None;
                    }
                }
                i += 1;
                continue;
            }
            let rest = &line[i..];
            if rest.starts_with(".inner.lock()") {
                if let Some(name) = binding_name(line, i) {
                    guards.push(Guard {
                        name,
                        bind_depth: depth,
                        suppressed_at: None,
                    });
                }
                i += ".inner.lock()".len();
                continue;
            }
            if rest.starts_with(".unpark()") {
                if let Some(g) = guards.iter().find(|g| g.live()) {
                    out.push(Finding {
                        severity: Severity::Error,
                        detector: "lint:unpark-under-lock",
                        message: format!(
                            "{path}:{}: `unpark` while mutex guard `{}` is held — \
                             the woken thread blocks straight back on the lock",
                            lineno + 1,
                            g.name
                        ),
                    });
                }
                i += ".unpark()".len();
                continue;
            }
            let drop_boundary = i == 0
                || !line[..i]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if rest.starts_with("drop(") && drop_boundary {
                // `drop(name)` — release that guard for this block.
                let inner = &rest["drop(".len()..];
                let name: String = inner
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                for g in &mut guards {
                    if g.name == name && g.live() {
                        g.suppressed_at = Some(depth);
                    }
                }
                i += "drop(".len();
                continue;
            }
            i += 1;
        }
    }
    out
}

/// Files that produce figure/JSON output must not iterate hash containers
/// without sorting: the iteration order would leak into the artifact.
fn lint_hash_iteration(path: &str, stripped: &str) -> Vec<Finding> {
    let lower = stripped.to_lowercase();
    let produces_output = lower.contains("json") || lower.contains("fig");
    if !produces_output {
        return Vec::new();
    }
    // Collect identifiers bound to hash containers.
    let mut hash_vars: Vec<String> = Vec::new();
    for line in stripped.lines() {
        if !(line.contains("HashMap") || line.contains("HashSet")) {
            continue;
        }
        // `let [mut] name: HashMap<..>` or `let [mut] name = HashMap::new()`.
        if let Some(rest) = line.trim_start().strip_prefix("let ") {
            let rest = rest.trim_start().strip_prefix("mut ").unwrap_or(rest);
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                hash_vars.push(name);
            }
        }
    }
    let mut out = Vec::new();
    for (lineno, line) in stripped.lines().enumerate() {
        for var in &hash_vars {
            let mut probes = String::new();
            for accessor in [".iter()", ".keys()", ".values()", ".into_iter()"] {
                probes.clear();
                let _ = write!(probes, "{var}{accessor}");
                if token_match(line, &probes) && !line.contains("sort") && !line.contains("collect")
                {
                    out.push(Finding {
                        severity: Severity::Error,
                        detector: "lint:hash-iter-output",
                        message: format!(
                            "{path}:{}: iterating hash container `{var}` in an \
                             output-producing file without sorting",
                            lineno + 1
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Lint every `.rs` file under `root/<dir>` for each of `dirs`.
/// Returns findings with repo-relative paths, plus one `stale-allow`
/// error per allowlist entry that suppressed nothing in the whole tree.
pub fn lint_tree(root: &Path, dirs: &[&str], allow: &[Allow]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut used = vec![false; allow.len()];
    for dir in dirs {
        walk(&root.join(dir), root, allow, &mut used, &mut out);
    }
    for (a, _) in allow.iter().zip(&used).filter(|(_, used)| !**used) {
        out.push(Finding {
            severity: Severity::Error,
            detector: "lint:stale-allow",
            message: format!(
                "allowlist entry `{} {}` suppressed no finding — the code it \
                 excused is gone; delete the entry",
                a.path_suffix, a.rule
            ),
        });
    }
    out
}

fn walk(dir: &Path, root: &Path, allow: &[Allow], used: &mut [bool], out: &mut Vec<Finding>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, root, allow, used, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let Ok(src) = fs::read_to_string(&path) else {
                continue;
            };
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.extend(lint_source_marking(&rel, &src, allow, used));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_removes_comments_and_strings() {
        let src = "let a = 1; // Instant::now\nlet b = \"SystemTime\"; /* rand:: */ let c;\n";
        let s = strip_code(src);
        assert!(!s.contains("Instant::now"));
        assert!(!s.contains("SystemTime"));
        assert!(!s.contains("rand::"));
        assert!(s.contains("let c;"));
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn banned_tokens_are_reported_with_lines() {
        let src = "fn f() {\n    let t = Instant::now();\n}\n";
        let f = lint_source("x.rs", src, &[]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].detector, "lint:instant-now");
        assert!(f[0].message.contains("x.rs:2"), "{}", f[0].message);
    }

    #[test]
    fn commented_tokens_are_ignored() {
        let src = "// Instant::now is banned\nfn f() {}\n";
        assert!(lint_source("x.rs", src, &[]).is_empty());
    }

    #[test]
    fn allowlist_suppresses_by_suffix_and_rule() {
        let src = "let t = Instant::now();\nstd::thread::sleep(d);\n";
        let allow = parse_allowlist("crates/sim/src/engine.rs instant-now # real clock\n");
        let f = lint_source("crates/sim/src/engine.rs", src, &allow);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].detector, "lint:thread-sleep");
        let all = parse_allowlist("engine.rs *\n");
        assert!(lint_source("crates/sim/src/engine.rs", src, &all).is_empty());
    }

    #[test]
    fn token_boundaries_respected() {
        assert!(!token_match("my_rand::thing()", "rand::"));
        assert!(token_match("rand::thread_rng()", "rand::"));
        assert!(!token_match("operand::x", "rand::"));
        assert!(token_match("std::thread::sleep(d)", "thread::sleep"));
        assert!(token_match("std::time::Instant::now()", "Instant::now"));
    }

    #[test]
    fn unpark_under_live_guard_flagged() {
        let src = "fn f(&self) {\n    let mut g = self.inner.lock();\n    t.unpark();\n}\n";
        let f = lint_source("x.rs", src, &[]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].detector, "lint:unpark-under-lock");
        assert!(f[0].message.contains("x.rs:3"), "{}", f[0].message);
        assert!(f[0].message.contains("`g`"), "{}", f[0].message);
    }

    #[test]
    fn unpark_after_drop_is_clean() {
        let src =
            "fn f(&self) {\n    let mut g = self.inner.lock();\n    drop(g);\n    t.unpark();\n}\n";
        assert!(lint_source("x.rs", src, &[]).is_empty());
    }

    #[test]
    fn drop_in_one_match_arm_does_not_absolve_siblings() {
        // Mirrors the engine's run() loop: `drop(g)` inside the `Some`
        // arm, an unpark in the sibling `None` arm where `g` is still
        // live. Only the second unpark is a violation.
        let src = "fn f(&self) {\n\
                   \x20   let mut g = self.inner.lock();\n\
                   \x20   match x {\n\
                   \x20       Some(t) => {\n\
                   \x20           drop(g);\n\
                   \x20           t.unpark();\n\
                   \x20       }\n\
                   \x20       None => {\n\
                   \x20           t.unpark();\n\
                   \x20       }\n\
                   \x20   }\n\
                   }\n";
        let f = lint_source("x.rs", src, &[]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("x.rs:9"), "{}", f[0].message);
    }

    #[test]
    fn guard_dies_with_its_scope() {
        let src = "fn f(&self) {\n\
                   \x20   {\n\
                   \x20       let mut g = self.inner.lock();\n\
                   \x20   }\n\
                   \x20   t.unpark();\n\
                   }\n";
        assert!(lint_source("x.rs", src, &[]).is_empty());
    }

    #[test]
    fn lock_discipline_respects_allowlist() {
        let src = "fn f(&self) {\n    let mut g = self.inner.lock();\n    t.unpark();\n}\n";
        let allow = parse_allowlist("engine.rs unpark-under-lock # direct handoff\n");
        assert!(lint_source("crates/sim/src/engine.rs", src, &allow).is_empty());
        // Other files still flagged.
        assert_eq!(lint_source("x.rs", src, &allow).len(), 1);
    }

    #[test]
    fn trace_readback_is_flagged_in_shipped_apps_code_only() {
        let src = "fn run() {\n    let t = report.vt.build_trace();\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { vt.with_rank_events(0, |_| ()); }\n}\n";
        let f = lint_source("crates/apps/src/cli.rs", src, &[]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].detector, "lint:trace-readback");
        assert!(f[0].message.contains("cli.rs:2"), "{}", f[0].message);
        // Other crates may read traces back; comments never count.
        assert!(lint_source("crates/vt/src/lib.rs", src, &[]).is_empty());
        let doc = "/// Unlike `build_trace`, this streams.\nfn run() {}\n";
        assert!(lint_source("crates/apps/src/cli.rs", doc, &[]).is_empty());
        // A longer identifier is not the call.
        let other = "fn rebuild_trace_index() {}\n";
        assert!(lint_source("crates/apps/src/cli.rs", other, &[]).is_empty());
    }

    #[test]
    fn image_construction_is_flagged_outside_the_two_builders() {
        let src = "fn process_images(app: &AppSpec) {\n    let img = app.build_image(true);\n}\n\
                   fn drive() {\n    let extra = Image::new(program);\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { ImageBuilder::new(\"t\"); }\n}\n";
        let f = lint_source("crates/core/src/session.rs", src, &[]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].detector, "lint:image-construction");
        assert!(f[0].message.contains("session.rs:5"), "{}", f[0].message);
        // Other crates build images as they like.
        assert!(lint_source("crates/bench/src/lib.rs", src, &[]).is_empty());
        // The method that wraps the constructor may name it; a session
        // file that lost its helper is itself a finding.
        let app = "impl AppSpec {\n    pub fn build_image(&self) -> Arc<Image> {\n        \
                   Arc::new(Image::new(self.program()))\n    }\n}\n";
        assert!(lint_source("crates/core/src/app.rs", app, &[]).is_empty());
        let f = lint_source("crates/core/src/session.rs", "fn run() {}\n", &[]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("not found"), "{}", f[0].message);
    }

    #[test]
    fn query_state_is_dense_and_the_matrix_streams() {
        let comm = "pub struct CommBuilder {\n    ranks: BTreeMap<u32, State>,\n}\n\
                    impl CommBuilder {\n    pub fn write_matrix(&self) {\n        \
                    let cell = format!(\"{}\", 1);\n    }\n    \
                    pub fn label(&self) -> String {\n        format!(\"{}\", 2)\n    }\n}\n\
                    #[cfg(test)]\nmod tests {\n    fn t() { let m = BTreeMap::new(); }\n}\n";
        let f = lint_source("crates/analysis/src/comm.rs", comm, &[]);
        let lines: Vec<_> = f.iter().map(|x| (x.detector, x.message.clone())).collect();
        assert_eq!(f.len(), 2, "{lines:?}");
        assert!(f.iter().all(|x| x.detector == "lint:query-dense-state"));
        assert!(f[0].message.contains("comm.rs:2"), "{}", f[0].message);
        assert!(f[1].message.contains("comm.rs:6"), "{}", f[1].message);
        // The tree rule covers timeline.rs too; other files keep their maps.
        let timeline = "use std::collections::BTreeMap;\n";
        assert_eq!(
            lint_source("crates/analysis/src/timeline.rs", timeline, &[]).len(),
            1
        );
        assert!(lint_source("crates/analysis/src/profile.rs", timeline, &[]).is_empty());
        // A comm.rs that lost `write_matrix` is a finding, not a pass.
        let f = lint_source("crates/analysis/src/comm.rs", "fn rows() {}\n", &[]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("not found"), "{}", f[0].message);
    }

    #[test]
    fn engine_rs_unparks_only_with_no_guard_held() {
        // The engine's two audited unpark-under-lock sites (`abort()`'s
        // panic teardown, `run()`'s deadlock verdict) went when the
        // carriers got one exit protocol: teardown unparks with no guard
        // held, and the allowlist has no entry. Lint the real source
        // *without* the allowlist and pin that count — a new site must
        // be a fresh audit, not a free pass.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../sim/src/engine.rs");
        let src = std::fs::read_to_string(path).expect("engine.rs readable");
        let f = lint_source("crates/sim/src/engine.rs", &src, &[]);
        let unparks: Vec<_> = f
            .iter()
            .filter(|x| x.detector == "lint:unpark-under-lock")
            .collect();
        assert_eq!(unparks.len(), 0, "{unparks:?}");
        // The scan does see the carrier's wake-ups: they exist, unlocked.
        assert!(strip_code(&src).matches(".unpark()").count() >= 3);
    }

    #[test]
    fn allowlist_entry_that_suppresses_nothing_is_stale() {
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let dirs = ["crates/check/fixtures/stale_allow"];
        // `clean.rs` reads a wall clock once: the entry for it is live,
        // the other two excuse nothing.
        let allow = parse_allowlist(
            "stale_allow/clean.rs instant-now\n\
             stale_allow/clean.rs thread-sleep\n\
             stale_allow/gone.rs *\n",
        );
        let f = lint_tree(root, &dirs, &allow);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.detector == "lint:stale-allow"), "{f:?}");
        assert!(f[0].message.contains("clean.rs thread-sleep"), "{f:?}");
        assert!(f[1].message.contains("gone.rs *"), "{f:?}");
        // Without the live entry the finding it suppressed comes back.
        let f = lint_tree(root, &dirs, &[]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].detector, "lint:instant-now");
    }

    #[test]
    fn clock_methods_must_not_lock() {
        let clean = "impl Proc {\n    pub fn now(&self) -> T {\n        self.clock.get()\n    }\n    \
                     pub fn advance(&self, dt: T) {\n        self.clock.set(dt);\n    }\n    \
                     pub fn name(&self) -> String {\n        self.eng.inner.lock().name()\n    }\n}\n";
        assert!(lint_source("x.rs", clean, &[]).is_empty());
        let bad = clean.replace("self.clock.get()", "self.eng.inner.lock().clock");
        let f = lint_source("x.rs", &bad, &[]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].detector, "lint:clock-under-lock");
        assert!(f[0].message.contains("x.rs:3"), "{}", f[0].message);
        assert!(f[0].message.contains("Proc::now"), "{}", f[0].message);
        // A vanished method is a finding, not a pass.
        let renamed = clean.replace("fn advance(", "fn charge(");
        let f = lint_source("x.rs", &renamed, &[]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("not found"), "{}", f[0].message);
        // Files without an `impl Proc` are not subject to the rule.
        assert!(lint_source("x.rs", "fn now() { m.lock(); }\n", &[]).is_empty());
    }

    #[test]
    fn engine_rs_clock_methods_are_found_and_lock_free() {
        // The rule is only worth something if it sees the real methods:
        // renaming one away from under it must fail here, loudly.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../sim/src/engine.rs");
        let src = std::fs::read_to_string(path).expect("engine.rs readable");
        let stripped = strip_code(&src);
        // Without the `impl` the rule would pass by not applying; with
        // it, a missing method is itself a finding.
        assert!(
            stripped.contains("impl Proc {"),
            "engine.rs implements Proc"
        );
        let f = lint_clock_under_lock("engine.rs", &stripped);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn hash_iteration_in_output_file_flagged() {
        let src =
            "fn fig7() {\n    let m = HashMap::new();\n    for k in m.keys() { emit(k); }\n}\n";
        let f = lint_source("figures.rs", src, &[]);
        assert!(
            f.iter().any(|x| x.detector == "lint:hash-iter-output"),
            "{f:?}"
        );
        // Sorting on the same statement is accepted.
        let sorted = "fn fig7() {\n    let m = HashMap::new();\n    let mut v: Vec<_> = m.keys().collect();\n    v.sort();\n}\n";
        assert!(lint_source("figures.rs", sorted, &[]).is_empty());
        // Non-output files are not subject to the rule.
        let f = lint_source("engine.rs", src.replace("fig7", "step").as_str(), &[]);
        assert!(f.is_empty());
    }
}
