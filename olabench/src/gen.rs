//! Seeded input generators. `--seed` reaches the workloads only through
//! these functions, so equal seeds give equal inputs.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The generator for `stream` (a workload-specific stream number) of a run
/// seeded with `seed`.
pub fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Dyadic coefficients a product may take instead of a second input.
const COEFFS: [&str; 8] = ["0.25", "0.375", "0.5", "0.625", "0.75", "0.875", "-0.5", "-0.25"];

/// A random sum of `products` products, `y = a*b + c*d + e*0.375`, over
/// inputs named from `vars`: every product but the last multiplies two
/// inputs, the last an input and a dyadic constant; inputs may repeat.
/// A constant product costs a fraction of a two-input one, so the split is
/// fixed rather than drawn: the seed varies the terms, not the op's cost.
pub fn sum_of_products(rng: &mut ChaCha8Rng, products: usize, vars: &[&str]) -> String {
    let mut var = || vars[rng.gen_range(0..vars.len())];
    let mut terms: Vec<String> = (1..products).map(|_| format!("{}*{}", var(), var())).collect();
    let a = var();
    terms.push(format!("{a}*{}", COEFFS[rng.gen_range(0..COEFFS.len())]));
    format!("y = {}", terms.join(" + "))
}

/// Renders a query body from `(key, value)` pairs whose values are
/// already JSON.
pub fn body(fields: &[(&str, String)]) -> String {
    let parts: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", parts.join(","))
}

/// A JSON string literal (the generated texts need no escaping).
pub fn s(v: &str) -> String {
    format!("\"{v}\"")
}
