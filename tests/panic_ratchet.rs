//! A ratchet on panic sites in library code: per crate, the number of
//! `panic!`, `unreachable!`, `.unwrap()` and `.expect("` sites may fall
//! but not rise. Each site is a claim that some invariant holds; input
//! that crosses a trust boundary should get a typed error instead.
//!
//! Counted in every `.rs` file under a crate's `src/`, above the file's
//! first `#[cfg(test)]`, on lines that are not `//` comments. A method
//! that merely shares the name (the parser's `cur.expect(b',')`) does
//! not count. When a count falls, lower its entry in [`BUDGET`] so that
//! it stays down.
//!
//! The same lines hold every `SWPF_*` environment variable the program
//! reads, another trust boundary: [`ENV_READS`] lists them per crate,
//! and a new one (or one gone) fails until the list names it.

use std::path::Path;

/// The sites each crate may have, by the directory that holds its
/// `src/` (`.` is the facade crate).
const BUDGET: [(&str, usize); 11] = [
    (".", 0),
    ("crates/analysis", 0),
    ("crates/bench", 30),
    ("crates/core", 16),
    ("crates/ir", 53),
    ("crates/obs", 12),
    ("crates/pass", 3),
    ("crates/sim", 6),
    ("crates/trace", 9),
    ("crates/tune", 8),
    ("crates/workloads", 43),
];

const SITES: [&str; 4] = ["panic!", "unreachable!", ".unwrap()", ".expect(\""];

/// The `SWPF_*` variables each crate reads through `env::var` or
/// `env::var_os`, by the directory that holds its `src/`; a crate that
/// reads none is not listed.
const ENV_READS: [(&str, &[&str]); 3] = [
    ("crates/bench", &["SWPF_SCALE"]),
    ("crates/core", &["SWPF_VERIFY_PASSES"]),
    ("crates/ir", &["SWPF_TIER"]),
];

/// The non-test, non-comment lines of every `.rs` file under `dir`,
/// file by file in sorted path order.
fn code_lines_under(dir: &Path) -> Vec<String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("a directory entry").path())
        .collect();
    entries.sort();
    let mut lines = Vec::new();
    for path in entries {
        if path.is_dir() {
            lines.extend(code_lines_under(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            let code = text
                .lines()
                .take_while(|line| !line.contains("#[cfg(test)]"))
                .filter(|line| !line.trim_start().starts_with("//"));
            lines.extend(code.map(str::to_string));
        }
    }
    lines
}

/// The panic sites of every `.rs` file under `dir`.
fn sites_under(dir: &Path) -> usize {
    code_lines_under(dir)
        .iter()
        .map(|line| SITES.iter().map(|s| line.matches(s).count()).sum::<usize>())
        .sum()
}

/// The `SWPF_*` names read through `env::var(` or `env::var_os(` on the
/// code lines under `dir`, sorted and without repeats. Only a name
/// written as a literal right after the call is seen.
fn env_reads_under(dir: &Path) -> Vec<String> {
    let mut names = Vec::new();
    for line in code_lines_under(dir) {
        for call in ["env::var(\"", "env::var_os(\""] {
            for (at, _) in line.match_indices(call) {
                let rest = &line[at + call.len()..];
                let name = rest.split('"').next().unwrap_or_default();
                if name.starts_with("SWPF_") {
                    names.push(name.to_string());
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

#[test]
fn no_crate_gains_a_panic_site() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut risen = Vec::new();
    for (krate, budget) in BUDGET {
        let count = sites_under(&root.join(krate).join("src"));
        if count > budget {
            risen.push(format!("{krate}: {count} sites, budget {budget}"));
        } else if count < budget {
            eprintln!("{krate}: {count} sites, below its budget of {budget}; lower it");
        }
    }
    assert!(risen.is_empty(), "panic sites rose: {}", risen.join("; "));
}

#[test]
fn the_budget_names_every_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ lists");
    for entry in crates {
        let name = format!(
            "crates/{}",
            entry.expect("an entry").file_name().to_string_lossy()
        );
        assert!(
            BUDGET.iter().any(|(krate, _)| *krate == name),
            "{name} has no entry in BUDGET"
        );
    }
}

#[test]
fn only_the_listed_swpf_variables_are_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for (krate, _) in BUDGET {
        let names = env_reads_under(&root.join(krate).join("src"));
        if !names.is_empty() {
            found.push(format!("{krate}: {}", names.join(", ")));
        }
    }
    let expected: Vec<String> = ENV_READS
        .iter()
        .map(|(krate, names)| format!("{krate}: {}", names.join(", ")))
        .collect();
    assert_eq!(found, expected, "SWPF_* reads differ from ENV_READS");
}
