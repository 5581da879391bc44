//! The `fractal` command; see [`fractal::cli`].

#![forbid(unsafe_code)]

fn main() {
    fractal::cli::run()
}
