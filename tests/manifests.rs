//! Manifest hygiene: every dependency a crate declares is named where the
//! crate builds it, every vendored crate is declared by someone, and every
//! artifact or binary the documents cite exists.

use std::path::{Path, PathBuf};

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

/// The root package and every crate under `crates/`: the directories
/// whose `Cargo.toml` the workspace builds.
fn workspace_members(root: &Path) -> Vec<PathBuf> {
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/");
    let members: Vec<_> = std::iter::once(root.to_path_buf())
        .chain(crates.flatten().map(|entry| entry.path()))
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    assert!(members.len() > 10, "member walk broke: {members:?}");
    members
}

/// Whether `text` names `ident` as a whole word.
fn names(text: &str, ident: &str) -> bool {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(ident)
        .any(|(at, _)| !text[..at].ends_with(word) && !text[at + ident.len()..].starts_with(word))
}

/// Every `.rs` file under `dir`, skipping `target/`, `vendor/` and hidden
/// directories.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|entry| entry.path()) {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if !path.is_dir() {
            if name.ends_with(".rs") {
                out.push(path);
            }
        } else if name != "target" && name != "vendor" && !name.starts_with('.') {
            rust_sources(&path, out);
        }
    }
}

#[test]
fn manifests_declare_only_dependencies_that_are_used() {
    // A crate's `[dependencies]` must each be named somewhere in its
    // `src/`, its `[dev-dependencies]` somewhere in its `src/`, `tests/`,
    // `benches/` or `examples/`, `[workspace.dependencies]` may list only
    // what some member declares, and every crate under `vendor/` must be
    // named by `[workspace.dependencies]` or by another vendored crate: a
    // dependency nobody uses is still built, vendored and read.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf();
    let members = workspace_members(&root);
    let mut sources = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(top), &mut sources);
    }
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

#[test]
fn documents_cite_only_artifacts_and_binaries_that_exist() {
    // Every committed artifact (`BENCH_*.json`, `FIGURES.json`) that
    // README.md, DESIGN.md or EXPERIMENTS.md names is at the repo root,
    // and every `--bin NAME` they name is a `[[bin]]` some workspace
    // manifest declares: deleting an artifact or a binary deletes its
    // citations too.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut bins = Vec::new();
    for dir in workspace_members(root) {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest");
        let mut in_bin = false;
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                in_bin = line == "[[bin]]";
            } else if let (true, Some(("name", value))) = (in_bin, line.split_once(" = ")) {
                bins.push(value.trim_matches('"').to_string());
            }
        }
    }
    assert!(
        bins.iter().any(|b| b == "figures"),
        "[[bin]] walk broke: {bins:?}"
    );

    let (mut artifacts, mut cited_bins, mut missing) = (0, 0, Vec::new());
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("document");
        let word = |c: char| !(c.is_alphanumeric() || matches!(c, '_' | '.'));
        for name in text.split(word).map(|w| w.trim_end_matches('.')) {
            let artifact = name.starts_with("BENCH_") || name == "FIGURES.json";
            if artifact && name.ends_with(".json") {
                artifacts += 1;
                if !root.join(name).is_file() {
                    missing.push(format!("{doc}: artifact {name}"));
                }
            }
        }
        let tokens: Vec<&str> = text.split_whitespace().collect();
        for pair in tokens.windows(2).filter(|pair| pair[0] == "--bin") {
            let name =
                pair[1].trim_matches(|c: char| !(c.is_alphanumeric() || c == '-' || c == '_'));
            cited_bins += 1;
            if !bins.iter().any(|b| b == name) {
                missing.push(format!("{doc}: --bin {name}"));
            }
        }
    }
    assert!(artifacts > 0 && cited_bins > 0, "citation scan broke");
    assert!(
        missing.is_empty(),
        "cited but not in the repo:\n  {}",
        missing.join("\n  ")
    );
}
