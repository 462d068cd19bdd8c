//! Golden-file comparison shared by the byte-identity pins.

/// Compare `actual` with `tests/goldens/<file>` byte for byte; with
/// `MHH_REGEN_GOLDENS` set in the environment, (re)write the file instead.
pub fn check_golden(file: &str, actual: &str) {
    let path = format!("{}/tests/goldens/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("MHH_REGEN_GOLDENS").is_some() {
        let dir = std::path::Path::new(&path).parent().expect("goldens dir");
        std::fs::create_dir_all(dir).expect("create goldens dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {path}: {e}; goldens belong in git, so a checkout \
             without this one lost it (`git check-ignore -v {path}` shows \
             whether an ignore rule hides it); do not rebuild it from the code \
             under test: MHH_REGEN_GOLDENS=1 is only for a deliberate output \
             change, explained in the commit"
        )
    });
    assert!(
        actual == expected,
        "{file} drifted from its golden (regenerate deliberately with \
         MHH_REGEN_GOLDENS=1, and say why in the commit); got:\n{actual}"
    );
}
