//! Expected answers: SHA-256 digests of every output the benchmark checks.
//!
//! The answers come from the tree-walking interpreter
//! (`CERES_INTERP_BACKEND=tree`), never from the bytecode VM the
//! benchmark measures, so a VM defect shows as a failed operation rather
//! than as a new baseline. Two kinds of entry share one file:
//!
//! * `fleet/<mode>/<slug>`: the app's canonical report JSON from
//!   `run_fleet_report`, for the two fleet workloads;
//! * a serve key id (see [`crate::gen::Key::id`]): the result fragment
//!   the daemon returns for that request, the bytes a one-shot envelope
//!   and a streamed `result` frame both carry.
//!
//! Regenerate with `python3 perfbench/run.py --regenerate-expected`.

use std::collections::HashMap;
use std::path::Path;

/// The stored answers, by entry id.
pub struct Expected {
    digests: HashMap<String, String>,
}

impl Expected {
    /// Load an answers file: `#` comment lines, then `id<TAB>digest`.
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read expected answers {}: {e}", path.display()))?;
        Expected::parse(&text).map_err(|e| format!("{}:{e}", path.display()))
    }

    /// Parse the text of an answers file.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut digests = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let (id, digest) = line
                .split_once('\t')
                .ok_or_else(|| format!("{}: want `id<TAB>digest`", n + 1))?;
            digests.insert(id.to_string(), digest.to_string());
        }
        Ok(Expected { digests })
    }

    /// Whether `output` is the stored answer for `id`. An id without a
    /// stored answer never matches.
    pub fn matches(&self, id: &str, output: &str) -> bool {
        self.digests.get(id).map(String::as_str) == Some(digest(output).as_str())
    }
}

/// The digest an answer is stored as.
pub fn digest(output: &str) -> String {
    ceres_core::cache::sha256_hex(output.as_bytes())
}

/// Entry id of a fleet app's canonical report.
pub fn fleet_id(mode: &str, slug: &str) -> String {
    format!("fleet/{mode}/{slug}")
}

/// Render an answers file from `(id, output)` pairs, sorted by id.
pub fn render(header: &[String], entries: &[(String, String)]) -> String {
    let mut lines: Vec<String> = entries
        .iter()
        .map(|(id, out)| format!("{id}\t{}", digest(out)))
        .collect();
    lines.sort();
    let mut text: String = header.iter().map(|h| format!("# {h}\n")).collect();
    for l in lines {
        text.push_str(&l);
        text.push('\n');
    }
    text
}
