//! Input generator for the `compile_batch` workload: the committed
//! baseline kernels, each replicated under renamed functions into one
//! large module, in an order drawn from the seed.

/// File stems of the textually distinct baseline kernels under
/// `benchmark/inputs/` (HJ-2/HJ-8 and G500-s16/s21 print identical IR,
/// so the seven paper configurations give five files).
pub const KERNELS: [&str; 5] = ["is", "cg", "ra", "hj", "g500"];

/// SplitMix64: a tiny seeded generator, enough to shuffle with.
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One module holding `copies` renamed copies of every kernel in
/// `kernels` (`(stem, module text)` pairs, each defining `@kernel`),
/// shuffled by `seed`. The set of functions depends only on `copies`,
/// so the work and the output size are the same for every seed.
///
/// # Errors
/// If a kernel text does not have the `module <name>` header followed by
/// exactly one `func @kernel(` definition.
pub fn replicate(kernels: &[(String, String)], copies: usize, seed: u64) -> Result<String, String> {
    const HEADER: &str = "func @kernel(";
    let mut bodies = Vec::with_capacity(kernels.len());
    for (stem, text) in kernels {
        let body = text
            .strip_prefix("module ")
            .and_then(|rest| rest.split_once('\n'))
            .map(|(_name, body)| body.trim())
            .ok_or_else(|| format!("{stem}: expected a `module <name>` header"))?;
        let rest = body
            .strip_prefix(HEADER)
            .filter(|rest| !rest.contains("func @"))
            .ok_or_else(|| format!("{stem}: expected exactly one `{HEADER}` definition"))?;
        bodies.push((stem, rest));
    }
    let mut order: Vec<(usize, usize)> = (0..bodies.len())
        .flat_map(|k| (0..copies).map(move |c| (k, c)))
        .collect();
    Rng::new(seed).shuffle(&mut order);
    let mut out = String::from("module big\n");
    for (k, copy) in order {
        let (stem, rest) = bodies[k];
        out.push_str(&format!("\nfunc @kernel_{stem}_{copy:04}({rest}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernels() -> Vec<(String, String)> {
        let f = |name: &str| {
            (
                name.to_string(),
                format!("module {name}\n\nfunc @kernel(%0: i64) -> i64 {{\nbb0:\n  ret %0\n}}\n"),
            )
        };
        vec![f("a"), f("b")]
    }

    #[test]
    fn deterministic_for_a_seed_and_seed_only_reorders() {
        let one = replicate(&kernels(), 3, 7).expect("generates");
        assert_eq!(one, replicate(&kernels(), 3, 7).expect("generates"));
        let other = replicate(&kernels(), 3, 8).expect("generates");
        assert_ne!(one, other);
        assert_eq!(one.len(), other.len());
        let names = |text: &str| {
            let mut v: Vec<String> = text
                .lines()
                .filter(|l| l.starts_with("func @"))
                .map(str::to_string)
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(&one), names(&other));
        assert_eq!(names(&one).len(), 6);
        assert!(one.contains("func @kernel_b_0002(%0: i64) -> i64 {"));
    }

    #[test]
    fn malformed_kernels_are_refused() {
        let bad = vec![("x".to_string(), "func @kernel() {}".to_string())];
        assert!(replicate(&bad, 1, 0).is_err());
        let two = vec![(
            "x".to_string(),
            "module x\n\nfunc @kernel() {\n}\n\nfunc @other() {\n}\n".to_string(),
        )];
        assert!(replicate(&two, 1, 0).is_err());
    }
}
