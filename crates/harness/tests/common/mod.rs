//! Helpers shared by the harness integration tests.

use std::path::PathBuf;

/// Compares each `(name, actual)` with the checked-in golden
/// `tests/golden/<name>`, tolerance-free.
///
/// Under `GOLDEN_REGEN` it writes every `actual` to its golden instead
/// and then fails, so a run that rewrites goldens never reports success.
///
/// # Panics
///
/// Panics on a mismatch, a missing golden, and after a regeneration.
pub fn check_goldens(files: &[(&str, String)]) {
    let path = |name: &str| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name)
    };
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let written: Vec<String> = files
            .iter()
            .map(|(name, actual)| {
                let path = path(name);
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(&path, actual).unwrap();
                path.display().to_string()
            })
            .collect();
        panic!(
            "regenerated {}; unset GOLDEN_REGEN and rerun",
            written.join(", ")
        );
    }
    for (name, actual) in files {
        let path = path(name);
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); run with GOLDEN_REGEN=1",
                path.display()
            )
        });
        assert_eq!(
            &expected, actual,
            "{name} diverged from the checked-in golden (tolerance-free comparison); \
             if the change is intentional, regenerate with GOLDEN_REGEN=1"
        );
    }
}
