//! The lint engine: file model, scope regions, suppression markers and
//! the driver that runs the catalogue over files and trees.
//!
//! A [`SourceFile`] is one lexed `.rs` file plus the derived facts every
//! lint needs:
//!
//! * **test regions** — byte ranges covered by `#[cfg(test)] mod … { }`
//!   blocks (files under `tests/`, `benches/` or `examples/` are test
//!   code wholesale, decided by path in [`crate::policy`]);
//! * **allow markers** — `// lint:allow(L001): reason` comments. A
//!   marker suppresses matching diagnostics on its own line, and, when
//!   it stands alone on its line, on the following line too. The reason
//!   is mandatory: a marker without one is ignored (suppressing nothing)
//!   so a bare `lint:allow(L001)` can never silently waive a finding;
//! * **no-alloc regions** — the body of the first `fn` following a
//!   `// lint: no-alloc` marker comment (used by L005).

use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Token, TokenKind};
use crate::{policy, rules};

/// One finding: a stable lint ID anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path (`/`-separated) of the offending file.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Stable lint ID (`"L001"` … `"L006"`).
    pub lint: &'static str,
    /// Human-readable explanation with the expected remedy.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.path, self.line, self.lint, self.message
        )
    }
}

/// A parsed `lint:allow(<id>): <reason>` marker.
#[derive(Debug, Clone)]
struct Allow {
    id: String,
    line: u32,
    /// Marker is the only content on its line (applies to the next line).
    standalone: bool,
}

/// One lexed source file plus the derived scope/suppression facts.
pub struct SourceFile<'a> {
    /// Repo-relative `/`-separated path used for policy decisions.
    pub rel_path: &'a str,
    /// The raw source text.
    pub src: &'a str,
    /// The token stream (whitespace-free).
    pub tokens: Vec<Token>,
    /// Byte ranges inside `#[cfg(test)] mod … { }` blocks.
    test_regions: Vec<Range<usize>>,
    /// Byte ranges of `fn` bodies marked `// lint: no-alloc`.
    no_alloc_regions: Vec<Range<usize>>,
    allows: Vec<Allow>,
}

impl<'a> SourceFile<'a> {
    /// Lexes `src` and derives regions and markers.
    pub fn parse(rel_path: &'a str, src: &'a str) -> SourceFile<'a> {
        let tokens = lex(src);
        let test_regions = find_cfg_test_regions(src, &tokens);
        let (allows, no_alloc_regions) = scan_markers(src, &tokens);
        SourceFile {
            rel_path,
            src,
            tokens,
            test_regions,
            no_alloc_regions,
            allows,
        }
    }

    /// Whether the byte at `offset` is inside test code: a test-path
    /// file, or a `#[cfg(test)]` mod block.
    pub fn in_test_code(&self, offset: usize) -> bool {
        policy::is_test_path(self.rel_path) || self.test_regions.iter().any(|r| r.contains(&offset))
    }

    /// The `// lint: no-alloc` fn-body regions of this file.
    pub fn no_alloc_regions(&self) -> &[Range<usize>] {
        &self.no_alloc_regions
    }

    /// Whether a diagnostic `(lint, line)` is waived by an allow marker.
    fn allowed(&self, lint: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.id == lint && (a.line == line || (a.standalone && a.line + 1 == line)))
    }
}

/// Runs the full catalogue over one file, returning unsuppressed
/// findings sorted by line.
pub fn check_file(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let file = SourceFile::parse(rel_path, src);
    let mut out: Vec<Diagnostic> = rules::check(&file)
        .into_iter()
        .filter(|d| !file.allowed(d.lint, d.line))
        .collect();
    out.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    // Two offending tokens on one line (`HashMap<…> { HashMap::new() }`)
    // are one finding, not two.
    out.dedup_by(|a, b| a.line == b.line && a.lint == b.lint && a.message == b.message);
    out
}

/// Scans comment tokens for suppression and region markers.
///
/// A marker is a comment whose body (after stripping `//`, `///`, `//!`
/// or `/*`/`*/` delimiters and whitespace) *starts with* `lint:` —
/// prose that merely mentions the syntax never matches.
fn scan_markers(src: &str, tokens: &[Token]) -> (Vec<Allow>, Vec<Range<usize>>) {
    let mut allows = Vec::new();
    let mut regions = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let body = match t.kind {
            TokenKind::LineComment => comment_body(t.text(src)),
            TokenKind::BlockComment => comment_body(t.text(src)),
            _ => continue,
        };
        let Some(rest) = body.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        if rest == "no-alloc" {
            if let Some(region) = fn_body_after(src, tokens, i) {
                regions.push(region);
            }
        } else if let Some(args) = rest.strip_prefix("allow(") {
            let Some((id, reason)) = args.split_once(')') else {
                continue;
            };
            // The reason is mandatory: `): <nonempty>` or the marker is
            // inert.
            let reason_ok = reason
                .strip_prefix(':')
                .is_some_and(|r| !r.trim().is_empty());
            if !reason_ok {
                continue;
            }
            let standalone = src[..t.start]
                .rsplit('\n')
                .next()
                .is_some_and(|prefix| prefix.trim().is_empty());
            allows.push(Allow {
                id: id.trim().to_string(),
                line: t.line,
                standalone,
            });
        }
    }
    (allows, regions)
}

/// Strips comment delimiters and surrounding whitespace from a comment
/// token's text.
fn comment_body(text: &str) -> &str {
    let body = if let Some(rest) = text.strip_prefix("//") {
        rest.trim_start_matches(['/', '!'])
    } else {
        text.trim_start_matches("/*")
            .trim_end_matches("*/")
            .trim_start_matches(['*', '!'])
    };
    body.trim()
}

/// The byte range of the body of the first `fn` at or after token `from`.
fn fn_body_after(src: &str, tokens: &[Token], from: usize) -> Option<Range<usize>> {
    let fn_idx = tokens[from..]
        .iter()
        .position(|t| t.kind == TokenKind::Ident && t.text(src) == "fn")?
        + from;
    let open = tokens[fn_idx..]
        .iter()
        .position(|t| t.kind == TokenKind::Punct && t.text(src) == "{")?
        + fn_idx;
    let close = matching_brace(src, tokens, open)?;
    Some(tokens[open].start..tokens[close].end)
}

/// Index of the `}` token matching the `{` at token index `open`.
/// Counts only Punct braces, so braces inside strings and comments never
/// confuse the depth.
fn matching_brace(src: &str, tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text(src) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Finds every `#[cfg(test)] mod … { }` block's byte range.
///
/// Pattern-matched on the token stream: `#` `[` `cfg` `(` `test` `)`
/// `]`, then any further attributes, then an optional visibility, then
/// `mod <name> {`. Inline `#[cfg(test)]` on items other than mods is not
/// treated as a region (the repo convention keeps unit tests in mods).
fn find_cfg_test_regions(src: &str, tokens: &[Token]) -> Vec<Range<usize>> {
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .map(|(i, _)| i)
        .collect();
    let text = |ci: usize| tokens[code[ci]].text(src);
    let mut regions = Vec::new();
    let mut ci = 0usize;
    while ci + 6 < code.len() {
        let is_cfg_test = text(ci) == "#"
            && text(ci + 1) == "["
            && text(ci + 2) == "cfg"
            && text(ci + 3) == "("
            && text(ci + 4) == "test"
            && text(ci + 5) == ")"
            && text(ci + 6) == "]";
        if !is_cfg_test {
            ci += 1;
            continue;
        }
        // Skip any further attributes (`#[…]`, bracket-balanced).
        let mut cj = ci + 7;
        while cj + 1 < code.len() && text(cj) == "#" && text(cj + 1) == "[" {
            let mut depth = 0usize;
            let mut ck = cj + 1;
            while ck < code.len() {
                match text(ck) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                ck += 1;
            }
            cj = ck + 1;
        }
        // Optional visibility (`pub`, `pub(crate)`, …) then `mod name {`.
        if cj < code.len() && text(cj) == "pub" {
            cj += 1;
            if cj < code.len() && text(cj) == "(" {
                while cj < code.len() && text(cj) != ")" {
                    cj += 1;
                }
                cj += 1;
            }
        }
        if cj + 2 < code.len() && text(cj) == "mod" && text(cj + 2) == "{" {
            if let Some(close) = matching_brace(src, tokens, code[cj + 2]) {
                regions.push(tokens[code[cj + 2]].start..tokens[close].end);
                ci = cj + 3;
                continue;
            }
        }
        ci += 1;
    }
    regions
}

// ---------------------------------------------------------------------
// Tree driver
// ---------------------------------------------------------------------

/// Finds the workspace root by walking up from `start` looking for a
/// `Cargo.toml` declaring `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Checks the given paths (files or directories), or the whole tree
/// under `root` when `paths` is empty. Diagnostics come back sorted by
/// `(path, line, lint)`.
///
/// Directory walks skip `target`, dot-directories and `fixtures`
/// directories (lint-test fixture files contain deliberate violations).
pub fn check_paths(root: &Path, paths: &[PathBuf]) -> Result<Vec<Diagnostic>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    if paths.is_empty() {
        collect_rs_files(root, &mut files)?;
    } else {
        for p in paths {
            if p.is_dir() {
                collect_rs_files(p, &mut files)?;
            } else if p.is_file() {
                files.push(p.clone());
            } else {
                return Err(format!("no such file or directory: {}", p.display()));
            }
        }
    }
    let mut out = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let src =
            std::fs::read_to_string(f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        out.extend(check_file(&rel, &src));
    }
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.lint).cmp(&(b.path.as_str(), b.line, b.lint)));
    Ok(out)
}

/// Recursively collects `.rs` files under `dir` in sorted order.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_regions_cover_mod_bodies() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let b_off = src.find("fn b").unwrap();
        assert!(f.in_test_code(b_off));
        assert!(!f.in_test_code(0));
    }

    #[test]
    fn attributes_between_cfg_and_mod_are_skipped() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn x() {} }\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.in_test_code(src.find("fn x").unwrap()));
    }

    #[test]
    fn allow_marker_requires_reason() {
        let src = "// lint:allow(L001)\nuse x;\n// lint:allow(L001): membership only\nuse y;\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.allowed("L001", 2), "reasonless marker must be inert");
        assert!(f.allowed("L001", 4), "standalone marker covers next line");
        assert!(f.allowed("L001", 3), "marker covers its own line");
    }

    #[test]
    fn prose_mentioning_the_syntax_is_not_a_marker() {
        let src = "/// Suppress with `lint:allow(L001): why` markers.\nfn f() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.allowed("L001", 2));
    }

    #[test]
    fn no_alloc_region_spans_the_next_fn_body() {
        let src = "// lint: no-alloc\nfn hot(x: &mut [f64]) {\n    step(x);\n}\nfn cold() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let regions = f.no_alloc_regions();
        assert_eq!(regions.len(), 1);
        assert!(regions[0].contains(&src.find("step").unwrap()));
        assert!(!regions[0].contains(&src.find("fn cold").unwrap()));
    }
}
