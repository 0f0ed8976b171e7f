//! Mutation fuzz of `.swir` text — the text half of the trust boundary.
//!
//! Seeded byte-, token- and line-level mutations (delete, duplicate,
//! swap; truncate anywhere) of the five baseline kernels and the
//! hand-written programs of `swir_sources`. For every mutant,
//! `parse_module` must return `Ok` or a `ParseError` whose line lies
//! within the input — never panic — and an `Ok` module that also
//! verifies must survive `print → parse → print` unchanged.
//! Deterministic: the same few thousand cases on every run.
//!
//! The same mutants pin the parser's verdicts: one row each in
//! `tests/golden/swir_fuzz_verdicts.txt`, `ok <fnv64 of the printed
//! module>` or `err <line>`. The file was first recorded from the
//! two-pass string-splitting parser (commit 1288674), so `git log -p`
//! on it shows every verdict a later parser moved; no row has ever gone
//! from one `ok` hash to another. After a *deliberate* grammar or
//! diagnostics change, regenerate with
//! `cargo test --test fuzz_swir -- --ignored bless_swir_fuzz_verdicts`
//! and account for every changed row.

mod swir_sources;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use swpf::ir::parser::parse_module;
use swpf::ir::printer::print_module;
use swpf::ir::verifier::verify_module;
use swpf::trace::fnv64;
use swpf::workloads::{Scale, WorkloadId};

const CASES_PER_SEED_TEXT: usize = 400;

/// Delete, duplicate, or swap-with-successor the piece at a random
/// position. (With fewer than two pieces a swap degrades to a no-op.)
fn mutate_pieces(pieces: &mut Vec<&str>, rng: &mut StdRng) {
    if pieces.is_empty() {
        return;
    }
    let at = rng.random_range(0..pieces.len());
    match rng.random_range(0..3) {
        0 => {
            pieces.remove(at);
        }
        1 => pieces.insert(at, pieces[at]),
        _ => {
            if at + 1 < pieces.len() {
                pieces.swap(at, at + 1);
            }
        }
    }
}

/// One mutation of `text` (ASCII in, ASCII out): a byte, a token (a
/// word with the whitespace character that ends it) or a line is
/// deleted, duplicated or swapped with its successor, or the text is
/// truncated anywhere.
fn mutate(text: &str, rng: &mut StdRng) -> String {
    let mut pieces: Vec<&str> = match rng.random_range(0..4) {
        0 => (0..text.len()).map(|i| &text[i..=i]).collect(),
        1 => text.split_inclusive(char::is_whitespace).collect(),
        2 => text.split_inclusive('\n').collect(),
        _ => return text[..rng.random_range(0..=text.len())].to_string(),
    };
    mutate_pieces(&mut pieces, rng);
    pieces.concat()
}

/// What became of a mutant that broke no property.
#[derive(Debug, PartialEq)]
enum Outcome {
    Rejected,
    Parsed,
    RoundTripped,
}

/// Check one mutant; `Err` describes the violated property.
fn check(text: &str) -> Result<Outcome, String> {
    let nlines = text.lines().count();
    let module = match parse_module(text) {
        Ok(module) => module,
        Err(e) if (1..=nlines.max(1)).contains(&e.line) => return Ok(Outcome::Rejected),
        Err(e) => {
            return Err(format!(
                "error line outside the input ({nlines} lines): {e}"
            ))
        }
    };
    if verify_module(&module).is_err() {
        return Ok(Outcome::Parsed);
    }
    let printed = print_module(&module);
    let reparsed =
        parse_module(&printed).map_err(|e| format!("printed text does not parse: {e}"))?;
    if print_module(&reparsed) == printed {
        Ok(Outcome::RoundTripped)
    } else {
        Err("print → parse → print is not the identity".to_string())
    }
}

/// The texts mutated: the five baseline kernels as printed, then the
/// hand-written programs of `swir_sources`.
fn seed_texts() -> Vec<String> {
    let kernels = [
        WorkloadId::Is,
        WorkloadId::Cg,
        WorkloadId::Ra,
        WorkloadId::Hj2,
        WorkloadId::G500Small,
    ];
    let mut seeds: Vec<String> = kernels
        .iter()
        .map(|id| print_module(&id.instantiate(Scale::Test).build_baseline()))
        .collect();
    seeds.extend(swir_sources::ALL.iter().map(|s| (*s).to_string()));
    seeds
}

/// The `CASES_PER_SEED_TEXT` mutants of seed text `n`, one to three
/// stacked mutations each.
fn mutants(n: usize, seed_text: &str) -> Vec<String> {
    assert!(seed_text.is_ascii(), "mutations slice by byte");
    let mut rng = StdRng::seed_from_u64(0x5eed_0000 + n as u64);
    (0..CASES_PER_SEED_TEXT)
        .map(|_| {
            let mut text = mutate(seed_text, &mut rng);
            for _ in 0..rng.random_range(0..3) {
                text = mutate(&text, &mut rng);
            }
            text
        })
        .collect()
}

#[test]
fn mutated_swir_never_panics_and_round_trips() {
    let seeds = seed_texts();
    let (mut rejected, mut round_tripped) = (0usize, 0usize);
    for (n, seed_text) in seeds.iter().enumerate() {
        assert!(
            check(seed_text) == Ok(Outcome::RoundTripped),
            "seed text {n} is valid"
        );
        for (case, text) in mutants(n, seed_text).iter().enumerate() {
            let outcome = catch_unwind(AssertUnwindSafe(|| check(text)));
            match outcome.unwrap_or_else(|_| Err("panicked".to_string())) {
                Ok(Outcome::Rejected) => rejected += 1,
                Ok(Outcome::Parsed) => {}
                Ok(Outcome::RoundTripped) => round_tripped += 1,
                Err(failure) => {
                    panic!("seed text {n}, case {case}: {failure}\n--- input ---\n{text}")
                }
            }
        }
    }
    // The mutations must reach both ends, not only the error paths.
    let total = seeds.len() * CASES_PER_SEED_TEXT;
    assert!(
        rejected > total / 20,
        "only {rejected} of {total} mutants rejected"
    );
    assert!(
        round_tripped > total / 100,
        "only {round_tripped} of {total} mutants verify and round-trip"
    );
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/swir_fuzz_verdicts.txt")
}

/// One row per mutant: `<seed text> <case> ok <fnv64 of the printed
/// module>` or `<seed text> <case> err <line>`.
fn verdict_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for (n, seed_text) in seed_texts().iter().enumerate() {
        for (case, text) in mutants(n, seed_text).iter().enumerate() {
            rows.push(match parse_module(text) {
                Ok(module) => {
                    format!(
                        "{n} {case} ok {:016x}",
                        fnv64(print_module(&module).as_bytes())
                    )
                }
                Err(e) => format!("{n} {case} err {}", e.line),
            });
        }
    }
    rows
}

#[test]
fn mutant_verdicts_match_golden() {
    let path = golden_path();
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let golden: Vec<&str> = golden.lines().collect();
    let actual = verdict_rows();
    for (want, got) in golden.iter().zip(&actual) {
        assert_eq!(want, got, "parser verdict diverged from golden");
    }
    assert_eq!(golden.len(), actual.len(), "the mutant set changed");
}

#[test]
#[ignore = "rewrites tests/golden/swir_fuzz_verdicts.txt; run after a deliberate grammar change"]
fn bless_swir_fuzz_verdicts() {
    let mut text = verdict_rows().join("\n");
    text.push('\n');
    std::fs::write(golden_path(), text).expect("golden written");
}
