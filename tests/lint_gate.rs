//! The static-analysis gate: `cargo test` fails if any first-party source
//! violates the workspace invariants enforced by `cwc-lint` (determinism,
//! panic-safety, unit-safety, protocol exhaustiveness, error swallowing,
//! kernel state-mutation discipline, the `unsafe` allow-list). Same engine
//! as the `cwc-lint` binary and the CI job — one rule set, three entry
//! points.

use std::path::Path;

#[test]
fn workspace_has_zero_unsuppressed_lint_findings() {
    let root = cwc_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let report = cwc_lint::run_workspace(&root).expect("lint walk");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — did the walker break?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "cwc-lint found violations — fix them or add a justified \
         `// cwc-lint: allow(<rule>)` pragma:\n{report}"
    );
}

#[test]
fn gate_would_actually_catch_a_violation() {
    // Guard the gate itself: a deterministic-crate wall-clock read must
    // produce a finding, or the test above is vacuously green. The `let _ =`
    // discard trips the error-swallowing rule alongside determinism, so this
    // one line exercises both the oldest and the newest rule families.
    let rules = cwc_lint::default_rules();
    let (kept, _) = cwc_lint::analyze_source(
        "crates/core/src/x.rs",
        "core",
        "fn f() { let _ = std::time::Instant::now(); }\n",
        &rules,
    );
    let rules_hit: Vec<_> = kept.iter().map(|f| f.rule).collect();
    assert!(
        rules_hit.contains(&"determinism") && rules_hit.contains(&"error_swallowing"),
        "lint engine no longer detects violations (hit: {rules_hit:?})"
    );
}

#[test]
fn gate_would_catch_a_kernel_state_mutation() {
    // Same self-check for the state-mutation discipline rule: a sibling
    // coord/ module assigning kernel bookkeeping directly must fire.
    let rules = cwc_lint::default_rules();
    let (kept, _) = cwc_lint::analyze_source(
        "crates/server/src/coord/helper.rs",
        "server",
        "fn f(k: &mut Kernel) { k.finished = true; }\n",
        &rules,
    );
    assert_eq!(
        kept.iter().filter(|f| f.rule == "state_mutation").count(),
        1,
        "state-mutation rule no longer fires (kept: {kept:?})"
    );
}

/// The entry names of one `[section]` of a manifest (`name = …`,
/// `name.workspace = true`), in file order.
fn manifest_section(manifest: &str, section: &str) -> Vec<String> {
    let header = format!("[{section}]");
    let body = manifest.lines().map(str::trim).skip_while(|l| *l != header);
    body.skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let name = |c: &char| c.is_alphanumeric() || matches!(c, '-' | '_');
            l.chars().take_while(name).collect()
        })
        .collect()
}

/// Whether `text` names `ident` as a whole word.
fn names(text: &str, ident: &str) -> bool {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(ident)
        .any(|(at, _)| !text[..at].ends_with(word) && !text[at + ident.len()..].starts_with(word))
}

#[test]
fn manifests_declare_only_dependencies_that_are_used() {
    // A crate's `[dependencies]` must each be named somewhere in its
    // `src/`, its `[dev-dependencies]` somewhere in its `src/`, `tests/`,
    // `benches/` or `examples/`, `[workspace.dependencies]` may list only
    // what some member declares, and every crate under `vendor/` must be
    // named by `[workspace.dependencies]` or by another vendored crate: a
    // dependency nobody uses is still built, vendored and read.
    let root = cwc_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/");
    let members: Vec<_> = std::iter::once(root.clone())
        .chain(crates.flatten().map(|entry| entry.path()))
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    assert!(members.len() > 10, "member walk broke: {members:?}");
    let sources = cwc_lint::workspace_sources(&root).expect("source walk");
    let src_names = |src: &Path, ident: &str| {
        let mut texts = sources.iter().filter(|path| path.starts_with(src));
        texts.any(|path| names(&std::fs::read_to_string(path).unwrap_or_default(), ident))
    };

    let mut unused = Vec::new();
    let mut declared = std::collections::BTreeSet::new();
    for dir in &members {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest");
        for (section, subdirs) in [
            ("dependencies", &["src"][..]),
            (
                "dev-dependencies",
                &["src", "tests", "benches", "examples"][..],
            ),
        ] {
            for dep in manifest_section(&manifest, section) {
                let ident = dep.replace('-', "_");
                if !subdirs.iter().any(|sub| src_names(&dir.join(sub), &ident)) {
                    unused.push(format!("{} [{section}]: {dep}", dir.display()));
                }
                declared.insert(dep);
            }
        }
    }
    let workspace = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let mut vendor_named = manifest_section(&workspace, "workspace.dependencies");
    for dep in &vendor_named {
        if !declared.contains(dep) {
            unused.push(format!("[workspace.dependencies]: {dep}"));
        }
    }
    let vendored: Vec<_> = std::fs::read_dir(root.join("vendor"))
        .expect("vendor/")
        .flatten()
        .map(|entry| entry.path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    assert!(vendored.len() >= 2, "vendor walk broke: {vendored:?}");
    for dir in &vendored {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest");
        vendor_named.extend(manifest_section(&manifest, "dependencies"));
    }
    for dir in &vendored {
        let name = dir.file_name().unwrap_or_default().to_string_lossy();
        if !vendor_named.iter().any(|dep| *dep == name) {
            unused.push(format!("vendor/{name}: no manifest depends on it"));
        }
    }
    assert!(
        unused.is_empty(),
        "declared but never named where the declaring crate builds it, or \
         vendored but never declared:\n  {}",
        unused.join("\n  ")
    );
}
