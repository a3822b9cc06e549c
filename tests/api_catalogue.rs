//! `docs/API.md` lists exactly the `pub` items the workspace's crates
//! declare, so every addition to or removal from the public surface shows
//! up as a reviewed diff of that file.
//!
//! The scan reads `crates/*/src` as text, the way `tests/lock_catalogue.rs`
//! does.  It relies on rustfmt's layout (CI checks it): an `impl` or inline
//! `mod` block closes with a `}` at the indentation of its header, which is
//! also how `#[cfg(test)]` modules are skipped.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The text above the list in `docs/API.md`.
const HEADER: &str = "\
# Public API catalogue

Every `pub` item declared under `crates/*/src`, one per line, as
`tests/api_catalogue.rs` reads it from the sources: the path, then the
kind.  A method's path runs through its `impl` type.  A `pub use` line
reads `<public path>  use <source path>`.  Items inside `#[cfg(test)]`
modules are left out.

A change that adds, removes, renames or moves a `pub` item updates this
file in the same commit; on a mismatch the test prints the whole expected
file.

";

/// The item kinds the scan lists; `const fn` and `unsafe fn` list as `fn`.
const KINDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "const", "type", "mod", "static", "union",
];

/// The `pub` item declared at the start of `line` (indentation removed),
/// as `(kind, name)`.
fn declaration(line: &str) -> Option<(&'static str, &str)> {
    let rest = line.strip_prefix("pub ")?;
    let (kind, after) = ["const fn", "unsafe fn"]
        .into_iter()
        .find_map(|qualified| Some(("fn", rest.strip_prefix(qualified)?.strip_prefix(' ')?)))
        .or_else(|| {
            KINDS
                .into_iter()
                .find_map(|kind| Some((kind, rest.strip_prefix(kind)?.strip_prefix(' ')?)))
        })?;
    let end = after
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(after.len());
    (end > 0).then(|| (kind, &after[..end]))
}

/// The type an `impl` header (joined onto one line) puts its methods on:
/// the last path segment of the `for` type, or else of the implemented
/// type, without generics.
fn impl_type(header: &str) -> String {
    let mut rest = header["impl".len()..].replace("->", "");
    if rest.starts_with('<') {
        let mut depth = 0usize;
        let end = rest
            .char_indices()
            .find(|&(_, c)| {
                match c {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    _ => {}
                }
                depth == 0
            })
            .map_or(rest.len(), |(at, _)| at + 1);
        rest.replace_range(..end, "");
    }
    let target = rest.rsplit(" for ").next().unwrap_or(&rest).trim();
    let path = target
        .split(|c: char| c == '<' || c == '{' || c.is_whitespace())
        .next()
        .unwrap_or(target);
    path.rsplit("::").next().unwrap_or(path).to_string()
}

/// Expands one `pub use` tree (`a::{b, c::{d, e as f}}`) into
/// `(public name, source path)` pairs.
fn use_leaves(prefix: &str, tree: &str, out: &mut Vec<(String, String)>) {
    let tree = tree.trim();
    if let Some(open) = tree.find('{') {
        let base = format!("{prefix}{}", &tree[..open]);
        let inner = &tree[open + 1..tree.rfind('}').expect("closing brace")];
        let mut depth = 0usize;
        let mut start = 0;
        for (at, c) in inner.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                ',' if depth == 0 => {
                    use_leaves(&base, &inner[start..at], out);
                    start = at + 1;
                }
                _ => {}
            }
        }
        use_leaves(&base, &inner[start..], out);
    } else if !tree.is_empty() {
        let (path, name) = match tree.split_once(" as ") {
            Some((path, alias)) => (path.trim(), alias.trim()),
            None => (tree, tree.rsplit("::").next().unwrap_or(tree)),
        };
        out.push((name.to_string(), format!("{prefix}{path}")));
    }
}

/// Records a `pub use` statement of module `path`, or hands the text back
/// while its closing `;` is still to come.
fn record_use(path: &str, text: String, items: &mut BTreeSet<String>) -> Option<String> {
    let Some(statement) = text.strip_suffix(';') else {
        return Some(text);
    };
    let mut leaves = Vec::new();
    use_leaves("", &statement["pub use ".len()..], &mut leaves);
    for (name, source) in leaves {
        items.insert(format!("{path}::{name}  use {source}"));
    }
    None
}

/// Adds the catalogue lines of one source file, whose module path is
/// `module`, to `items`.
fn scan(module: &str, source: &str, items: &mut BTreeSet<String>) {
    // Open `impl` and inline `mod` blocks: (closing line, path inside).
    let mut scopes: Vec<(String, String)> = Vec::new();
    let mut skip_until: Option<String> = None;
    let mut cfg_test = false;
    let mut impl_header: Option<(String, String)> = None;
    let mut pending_use: Option<String> = None;
    for line in source.lines() {
        if let Some(close) = &skip_until {
            if line == close {
                skip_until = None;
            }
            continue;
        }
        let trimmed = line.trim_start();
        let indent = &line[..line.len() - trimmed.len()];
        let path = scopes
            .last()
            .map_or(module.to_string(), |(_, path)| path.clone());
        if let Some(mut text) = pending_use.take() {
            text.push(' ');
            text.push_str(trimmed);
            pending_use = record_use(&path, text, items);
            continue;
        }
        if let Some((mut header, open_indent)) = impl_header.take() {
            header.push(' ');
            header.push_str(trimmed);
            if line.ends_with('{') {
                let inside = format!("{path}::{}", impl_type(&header));
                scopes.push((format!("{open_indent}}}"), inside));
            } else {
                impl_header = Some((header, open_indent));
            }
            continue;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        if trimmed.starts_with("#[") {
            cfg_test |= trimmed == "#[cfg(test)]";
            continue;
        }
        let under_cfg_test = std::mem::take(&mut cfg_test);
        if scopes.last().is_some_and(|(close, _)| line == close) {
            scopes.pop();
            continue;
        }
        if trimmed.starts_with("pub use ") {
            pending_use = record_use(&path, trimmed.to_string(), items);
            continue;
        }
        if trimmed.starts_with("impl ") || trimmed.starts_with("impl<") {
            if line.ends_with('{') {
                let inside = format!("{path}::{}", impl_type(trimmed));
                scopes.push((format!("{indent}}}"), inside));
            } else {
                impl_header = Some((trimmed.to_string(), indent.to_string()));
            }
            continue;
        }
        if let Some((kind, name)) = declaration(trimmed) {
            items.insert(format!("{path}::{name}  {kind}"));
        }
        let inline_mod = ["pub(crate) ", "pub(super) ", "pub ", ""]
            .into_iter()
            .find_map(|visibility| trimmed.strip_prefix(visibility)?.strip_prefix("mod "))
            .and_then(|rest| rest.strip_suffix(" {"));
        if let Some(name) = inline_mod {
            let close = format!("{indent}}}");
            if under_cfg_test {
                skip_until = Some(close);
            } else {
                scopes.push((close, format!("{path}::{name}")));
            }
        }
    }
}

/// The module path of `file` in the crate `krate` whose sources live in
/// `src`: `lib.rs` is the crate root, `a/mod.rs` and `a.rs` are
/// `krate::a`, and `bin/x.rs` is the root of the binary crate `x`.
fn module_path(krate: &str, src: &Path, file: &Path) -> String {
    let relative = file.strip_prefix(src).expect("file under src");
    let mut parts: Vec<String> = relative
        .iter()
        .map(|part| part.to_string_lossy().trim_end_matches(".rs").to_string())
        .collect();
    if parts[0] == "bin" {
        return parts[1].replace('-', "_");
    }
    if parts
        .last()
        .is_some_and(|last| last == "lib" || last == "mod")
    {
        parts.pop();
    }
    parts.insert(0, krate.to_string());
    parts.join("::")
}

/// Every catalogue line of the crates under `crates/`.
fn declared_items() -> BTreeSet<String> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut items = BTreeSet::new();
    for entry in std::fs::read_dir(crates).expect("crates directory") {
        let dir = entry.expect("crate entry").path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let krate = manifest
            .lines()
            .find_map(|line| line.strip_prefix("name = \"")?.strip_suffix('"'))
            .expect("package name")
            .replace('-', "_");
        let src = dir.join("src");
        let mut dirs = vec![src.clone()];
        let mut files: Vec<PathBuf> = Vec::new();
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).expect("source directory") {
                let path = entry.expect("source entry").path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|ext| ext == "rs") {
                    files.push(path);
                }
            }
        }
        for file in files {
            let source = std::fs::read_to_string(&file).expect("readable source");
            scan(&module_path(&krate, &src, &file), &source, &mut items);
        }
    }
    items
}

/// The whole of `docs/API.md` for `items`.
fn catalogue(items: &BTreeSet<String>) -> String {
    let mut text = format!("{HEADER}```text\n");
    for item in items {
        text.push_str(item);
        text.push('\n');
    }
    text.push_str("```\n");
    text
}

#[test]
fn api_doc_lists_every_pub_item() {
    let items = declared_items();
    assert!(
        items.contains("hj_core::engine::JoinEngine  struct")
            && items.contains("hj_core::engine::JoinEngine::submit  fn"),
        "the scan must find the engine: {} items",
        items.len()
    );
    let expected = catalogue(&items);
    let documented = include_str!("../docs/API.md");
    if documented != expected {
        let documented_lines: BTreeSet<&str> = documented.lines().collect();
        let expected_lines: BTreeSet<&str> = expected.lines().collect();
        let missing: Vec<_> = expected_lines.difference(&documented_lines).collect();
        let stale: Vec<_> = documented_lines.difference(&expected_lines).collect();
        panic!(
            "docs/API.md is out of date.\nmissing: {missing:#?}\nstale: {stale:#?}\n\
             The whole expected file:\n{expected}"
        );
    }
}

#[test]
fn scan_reads_impls_inline_modules_and_multi_line_uses() {
    let source = "\
pub mod inner {
    pub struct Thing;

    impl<T: Fn() -> u32> Thing {
        pub fn new() -> Self {
            Thing
        }

        pub(crate) fn hidden(&self) {}
    }
}

impl<'a> Wrapper<'a>
where
    'a: 'static,
{
    /// pub fn in_a_comment() {}
    pub fn shown(&self) {}
}

pub trait Backend {
    fn run(&self);
}

pub const fn limit() -> usize {
    1
}

pub use inner::{
    nested::{Deep as Renamed, Other},
    Thing,
};
pub use hj_metrics as metrics;

#[cfg(test)]
mod tests {
    pub fn helper() {}
}
";
    let mut items = BTreeSet::new();
    scan("krate::module", source, &mut items);
    let expected: BTreeSet<String> = [
        "krate::module::inner  mod",
        "krate::module::inner::Thing  struct",
        "krate::module::inner::Thing::new  fn",
        "krate::module::Wrapper::shown  fn",
        "krate::module::Backend  trait",
        "krate::module::limit  fn",
        "krate::module::Thing  use inner::Thing",
        "krate::module::Renamed  use inner::nested::Deep",
        "krate::module::Other  use inner::nested::Other",
        "krate::module::metrics  use hj_metrics",
    ]
    .map(String::from)
    .into();
    assert_eq!(items, expected);
}
