//! `cal` is a library module; `order` (with its own `order/helpers`)
//! and `nested` (a `mod.rs`) are test modules. Each module file holds
//! the same D6 line; only the library module's may fire.

mod cal;
#[cfg(test)]
mod nested;
#[cfg(test)]
mod order;
