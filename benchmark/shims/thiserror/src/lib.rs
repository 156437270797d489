//! Stand-in for `thiserror` 1: `#[derive(Error)]` with `#[error("…")]`
//! format strings (`{0}`, `{name}`, `{name:?}`) and `#[from]`.

pub use thiserror_impl::Error;
