//! Result comparison against an independent reference.
//!
//! Integers, booleans and the order and length of sequences must match
//! exactly. Floats use the tolerance the `crates/bench` asserts use,
//! `|a - b| <= 1e-9 * (1 + max(|a|, |b|))`, since a batch tier may sum
//! in a different order than a sequential reference.

use steno_expr::Value;

/// The `crates/bench` float tolerance.
pub fn f64_close(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// Whether `got` agrees with the reference `want`.
pub fn agree(got: &Value, want: &Value) -> bool {
    match (got, want) {
        (Value::F64(a), Value::F64(b)) => f64_close(*a, *b),
        (Value::Row(a), Value::Row(b)) => {
            a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| f64_close(*x, *y))
        }
        (Value::Pair(a), Value::Pair(b)) => agree(&a.0, &b.0) && agree(&a.1, &b.1),
        (Value::Seq(a), Value::Seq(b)) => {
            a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| agree(x, y))
        }
        _ => got == want,
    }
}

/// A short rendering of a value for mismatch messages.
pub fn brief(v: &Value) -> String {
    let s = format!("{v:?}");
    if s.chars().count() > 160 {
        format!("{}…", s.chars().take(160).collect::<String>())
    } else {
        s
    }
}

/// `Ok` when `got` agrees with `want`, else a message naming `what`.
pub fn expect(what: &str, got: &Value, want: &Value) -> Result<(), String> {
    if agree(got, want) {
        Ok(())
    } else {
        Err(format!(
            "reference mismatch on {what}: got {}, reference {}",
            brief(got),
            brief(want)
        ))
    }
}
