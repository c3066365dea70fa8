//! The `aire-noded` daemon binary: hosts one Aire service per OS
//! process behind real TCP listeners. See [`aire_apps::noded`] for the
//! full deployment story and the argument reference.

#![deny(unsafe_code)]

fn main() {
    std::process::exit(aire_apps::noded::cli(std::env::args().skip(1)));
}
