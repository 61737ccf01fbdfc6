//! Typed expression trees: the `Expression<T>` substrate of Steno.
//!
//! The Steno optimizer (Murray, Isard & Yu, PLDI 2011) works on a runtime
//! representation of the *query*, including the lambda expressions passed to
//! each operator. In .NET this representation is provided by the LINQ query
//! provider as `Expression<T>` trees; this crate provides the Rust
//! equivalent:
//!
//! * [`Ty`] — the small monomorphic type language used by queries,
//! * [`Expr`] / [`Lambda`] — expression trees with variables, arithmetic,
//!   comparisons, pair/row projections and user-defined function calls,
//! * [`typecheck`] — a checker that rejects ill-typed trees,
//! * [`eval`] — a reference tree-walking evaluator,
//! * [`subst`] — capture-avoiding substitution (the paper's rewriting of the
//!   outer element variable into nested queries, §5.2),
//! * [`Value`] / [`DataContext`] / [`UdfRegistry`] — the runtime data model
//!   shared by the LINQ interpreter and the Steno VM.
//!
//! # Example
//!
//! ```
//! use steno_expr::{Expr, eval::Env, eval::eval, udf::UdfRegistry, Value};
//!
//! // x * x + 1.0
//! let e = Expr::var("x") * Expr::var("x") + Expr::litf(1.0);
//! let mut env = Env::new();
//! env.bind("x", Value::F64(3.0));
//! let udfs = UdfRegistry::new();
//! assert_eq!(eval(&e, &env, &udfs).unwrap(), Value::F64(10.0));
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod data;
pub mod error;
pub mod eval;
pub mod expr;
pub mod subst;
pub mod ty;
pub mod typecheck;
pub mod udf;
pub mod value;

pub use data::{Column, DataContext};
pub use error::{EvalError, TypeError};
pub use expr::{BinOp, Expr, Lambda, UnOp};
pub use ty::Ty;
pub use udf::{Udf, UdfRegistry};
pub use value::Value;
