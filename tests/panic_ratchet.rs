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

use std::path::Path;

/// The sites each crate may have, by the directory that holds its
/// `src/` (`.` is the facade crate).
const BUDGET: [(&str, usize); 11] = [
    (".", 0),
    ("crates/analysis", 0),
    ("crates/bench", 33),
    ("crates/core", 17),
    ("crates/ir", 55),
    ("crates/obs", 12),
    ("crates/pass", 3),
    ("crates/sim", 6),
    ("crates/trace", 9),
    ("crates/tune", 9),
    ("crates/workloads", 43),
];

const SITES: [&str; 4] = ["panic!", "unreachable!", ".unwrap()", ".expect(\""];

/// The panic sites of one source file.
fn sites_in(text: &str) -> usize {
    text.lines()
        .take_while(|line| !line.contains("#[cfg(test)]"))
        .filter(|line| !line.trim_start().starts_with("//"))
        .map(|line| SITES.iter().map(|s| line.matches(s).count()).sum::<usize>())
        .sum()
}

/// The panic sites of every `.rs` file under `dir`.
fn sites_under(dir: &Path) -> usize {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("a directory entry").path())
        .collect();
    entries.sort();
    entries
        .iter()
        .map(|path| {
            if path.is_dir() {
                sites_under(path)
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
                sites_in(&text)
            } else {
                0
            }
        })
        .sum()
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
