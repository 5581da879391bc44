//! The historical binary name; see [`fractal::cli`].

#![forbid(unsafe_code)]

fn main() {
    fractal::cli::run()
}
