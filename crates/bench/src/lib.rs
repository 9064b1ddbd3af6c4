//! Shared scaffolding for the performance-snapshot binaries
//! (`bench_json`, `bench_serve`) and their trend gate (`bench_gate`).

#![forbid(unsafe_code)]

use actuary_tech::TechLibrary;

/// Builds the default library, panicking with a clear message on failure
/// (the snapshot binaries have no error channel).
pub fn library() -> TechLibrary {
    TechLibrary::paper_defaults().expect("paper defaults must construct")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_builds() {
        assert_eq!(library().node_count(), 7);
    }
}
