//! A lightweight item-level parser over the lossless lexer.
//!
//! This is deliberately **not** a Rust grammar. It recovers just enough
//! structure for the semantic rules: function items (name, enclosing
//! `impl` type, visibility, parameter list, body token range), struct
//! items (name, visibility, fields with their type heads), and — via
//! [`crate::callgraph`] — the call and field expressions inside bodies.
//! Everything it cannot recognise it skips without failing; the rules
//! built on top are written to stay silent on anything unparsed.
//!
//! All positions are indices into the file's *significant* token array
//! (`SourceFile::sig`), so trivia never shifts a range.

use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// One parsed parameter of a function item.
#[derive(Debug, Clone)]
pub struct Param {
    /// The binding name (`_` when the pattern is not a plain ident).
    pub name: String,
    /// The type's significant tokens joined by one space, references and
    /// lifetimes stripped (`"f64"`, `"Vec < f64 >"`).
    pub ty: String,
    /// 1-based line of the parameter name.
    pub line: u32,
    /// Significant-token index of the parameter name.
    pub at: usize,
}

impl Param {
    /// Whether the declared type is a bare `f64` (no newtype, no wrapper).
    #[must_use]
    pub fn is_bare_f64(&self) -> bool {
        self.ty == "f64"
    }
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's own name.
    pub name: String,
    /// The enclosing `impl` block's self type, if any (`Foo` for
    /// `impl Foo` and `impl Trait for Foo` alike).
    pub self_ty: Option<String>,
    /// Whether the item carries any `pub` qualifier (including scoped
    /// forms such as `pub(crate)`).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Significant-token index of the `fn` keyword.
    pub at: usize,
    /// Parsed parameters (receiver `self` forms excluded).
    pub params: Vec<Param>,
    /// Significant-token range of the body, *exclusive* of the outer
    /// braces; `None` for brace-less trait declarations.
    pub body: Option<(usize, usize)>,
}

impl FnItem {
    /// `Type::name` when the fn is a method, otherwise just the name.
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One parsed named struct field.
#[derive(Debug, Clone)]
pub struct FieldItem {
    /// The field name.
    pub name: String,
    /// The type's significant tokens joined by one space.
    pub ty: String,
    /// Whether the field itself carries a `pub` qualifier.
    pub is_pub: bool,
    /// 1-based line of the field name.
    pub line: u32,
    /// Significant-token index of the field name.
    pub at: usize,
}

impl FieldItem {
    /// Whether the declared type is a bare `f64`.
    #[must_use]
    pub fn is_bare_f64(&self) -> bool {
        self.ty == "f64"
    }
}

/// One parsed `struct` item with named fields (tuple and unit structs
/// carry an empty field list).
#[derive(Debug, Clone)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// Whether the struct carries any `pub` qualifier.
    pub is_pub: bool,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Significant-token index of the `struct` keyword.
    pub at: usize,
    /// Named fields, in declaration order.
    pub fields: Vec<FieldItem>,
}

/// Everything the item parser recovered from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Function items, in source order (nested fns included).
    pub fns: Vec<FnItem>,
    /// Struct items, in source order.
    pub structs: Vec<StructItem>,
}

/// Parses the items of `file`. Never fails; unrecognised constructs are
/// skipped.
#[must_use]
pub fn parse(file: &SourceFile) -> ParsedFile {
    let mut out = ParsedFile::default();
    let n = file.sig.len();
    // Stack of (brace_depth_when_opened, impl self type).
    let mut impl_stack: Vec<(usize, String)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < n {
        match file.sig_text(i) {
            "{" => {
                depth += 1;
                i += 1;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                while impl_stack.last().is_some_and(|(d, _)| *d > depth) {
                    impl_stack.pop();
                }
                i += 1;
            }
            "impl" => {
                if let Some((ty, open)) = parse_impl_header(file, i) {
                    impl_stack.push((depth + 1, ty));
                    depth += 1;
                    i = open + 1;
                } else {
                    i += 1;
                }
            }
            "fn" => {
                let (item, next) = parse_fn(file, i, impl_stack.last().map(|(_, t)| t.as_str()));
                if let Some(item) = item {
                    out.fns.push(item);
                }
                i = next;
            }
            "struct" => {
                let (item, next) = parse_struct(file, i);
                if let Some(item) = item {
                    out.structs.push(item);
                }
                i = next;
            }
            _ => i += 1,
        }
    }
    out
}

/// Parses `impl ... {`, returning the self type's simple name and the
/// sig index of the opening brace. For `impl Trait for Type` the self
/// type is `Type`.
fn parse_impl_header(file: &SourceFile, at: usize) -> Option<(String, usize)> {
    let n = file.sig.len();
    let mut j = at + 1;
    // Skip the generic parameter list, if any.
    if j < n && file.sig_text(j) == "<" {
        j = skip_angles(file, j)?;
    }
    let mut last_ident: Option<String> = None;
    let mut guard = 0usize;
    while j < n && guard < 128 {
        match file.sig_text(j) {
            "{" => return last_ident.map(|ty| (ty, j)),
            "for" => {
                last_ident = None;
                j += 1;
            }
            "<" => {
                j = skip_angles(file, j)?;
            }
            "where" => {
                // The self type is settled; scan on to the brace.
                while j < n && file.sig_text(j) != "{" {
                    j += 1;
                    guard += 1;
                    if guard >= 512 {
                        return None;
                    }
                }
            }
            _ => {
                if file.sig_kind(j) == TokenKind::Ident && file.sig_text(j) != "dyn" {
                    last_ident = Some(file.sig_text(j).to_string());
                }
                j += 1;
            }
        }
        guard += 1;
    }
    None
}

/// Skips a balanced `< ... >` group starting at `open`, returning the
/// index after the closing `>`. The `>` of a `->` (as in an
/// `F: Fn(u64) -> u64` bound) closes nothing.
fn skip_angles(file: &SourceFile, open: usize) -> Option<usize> {
    let n = file.sig.len();
    let mut depth = 0isize;
    let mut j = open;
    while j < n {
        match file.sig_text(j) {
            "<" => depth += 1,
            ">" if file.sig_text(j - 1) != "-" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            ";" | "{" => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Whether any of the few tokens before `at` is a `pub` qualifier of the
/// same item (scans back over `const` / `unsafe` / `extern` / ABI
/// strings and the closing paren of `pub(crate)`).
fn has_pub_qualifier(file: &SourceFile, at: usize) -> bool {
    let mut j = at;
    let mut guard = 0usize;
    while j > 0 && guard < 8 {
        j -= 1;
        guard += 1;
        match file.sig_text(j) {
            "pub" => return true,
            "const" | "unsafe" | "extern" | "async" | ")" | "(" | "crate" | "super" | "in" => {}
            other if file.sig_kind(j) == TokenKind::Str && other.starts_with('"') => {}
            _ => return false,
        }
    }
    false
}

/// Parses a `fn` item starting at the `fn` keyword. Returns the item (if
/// recognisable) and the sig index to resume scanning from — the body's
/// opening `{`, so the scanner counts it (keeping the enclosing `impl`
/// on the stack until its own `}`) and still visits nested items.
fn parse_fn(file: &SourceFile, at: usize, self_ty: Option<&str>) -> (Option<FnItem>, usize) {
    let n = file.sig.len();
    let name_idx = at + 1;
    if name_idx >= n || file.sig_kind(name_idx) != TokenKind::Ident {
        return (None, at + 1);
    }
    let name = file.sig_text(name_idx).to_string();
    let mut j = name_idx + 1;
    if j < n && file.sig_text(j) == "<" {
        match skip_angles(file, j) {
            Some(after) => j = after,
            None => return (None, at + 1),
        }
    }
    if j >= n || file.sig_text(j) != "(" {
        return (None, at + 1);
    }
    let (params, after_params) = parse_params(file, j);
    // Scan the return type / where clause to the body or `;`.
    let mut k = after_params;
    let mut guard = 0usize;
    let body = loop {
        if k >= n || guard > 512 {
            break None;
        }
        match file.sig_text(k) {
            ";" => break None,
            "{" => break Some(k),
            "<" => match skip_angles(file, k) {
                Some(after) => k = after,
                None => break None,
            },
            _ => k += 1,
        }
        guard += 1;
    };
    let body = body.map(|open| {
        let close = matching_close(file, open);
        (open + 1, close)
    });
    let item = FnItem {
        name,
        self_ty: self_ty.map(str::to_string),
        is_pub: has_pub_qualifier(file, at),
        line: file.sig_line(at),
        at,
        params,
        body,
    };
    // Resume at the opening brace (or after the signature).
    let resume = match item.body {
        Some((start, _)) => start - 1,
        None => k.min(n),
    };
    (Some(item), resume.max(at + 1))
}

/// Returns the sig index of the `}` or `)` matching the `{` or `(` at
/// `open` (or the end of file).
pub(crate) fn matching_close(file: &SourceFile, open: usize) -> usize {
    let (opener, closer) = if file.sig_text(open) == "(" {
        ("(", ")")
    } else {
        ("{", "}")
    };
    let mut depth = 0usize;
    for j in open..file.sig.len() {
        let text = file.sig_text(j);
        if text == opener {
            depth += 1;
        } else if text == closer {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    file.sig.len()
}

/// Parses a parenthesised parameter list starting at `(`, returning the
/// params and the index after the closing `)`.
fn parse_params(file: &SourceFile, open: usize) -> (Vec<Param>, usize) {
    let n = file.sig.len();
    let mut params = Vec::new();
    let mut depth = 0usize;
    let mut j = open;
    let mut piece_start = open + 1;
    let close = loop {
        if j >= n {
            return (params, n);
        }
        match file.sig_text(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break j;
                }
            }
            "," if depth == 1 => {
                push_param(file, piece_start, j, &mut params);
                piece_start = j + 1;
            }
            _ => {}
        }
        j += 1;
    };
    push_param(file, piece_start, close, &mut params);
    (params, close + 1)
}

/// Parses one `name: Type` parameter from the sig range `[start, end)`.
/// Receiver forms (`self`, `&self`, `&mut self`) and non-ident patterns
/// are skipped.
fn push_param(file: &SourceFile, start: usize, end: usize, out: &mut Vec<Param>) {
    let mut j = start;
    // Skip attributes (`#[...]`) and `mut`.
    while j < end {
        match file.sig_text(j) {
            "#" => {
                let mut depth = 0usize;
                j += 1;
                while j < end {
                    match file.sig_text(j) {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
            }
            "mut" => j += 1,
            _ => break,
        }
    }
    if j >= end || file.sig_kind(j) != TokenKind::Ident || file.sig_text(j) == "self" {
        return;
    }
    if j + 1 >= end || file.sig_text(j + 1) != ":" {
        return;
    }
    let name = file.sig_text(j).to_string();
    let line = file.sig_line(j);
    let ty = type_text(file, j + 2, end);
    out.push(Param {
        name,
        ty,
        line,
        at: j,
    });
}

/// The normalised type text of the sig range `[start, end)`: leading
/// references, `mut` and lifetimes stripped, tokens joined by one space.
fn type_text(file: &SourceFile, start: usize, end: usize) -> String {
    let mut j = start;
    while j < end
        && (matches!(file.sig_text(j), "&" | "mut") || file.sig_kind(j) == TokenKind::Lifetime)
    {
        j += 1;
    }
    let mut parts = Vec::new();
    for k in j..end {
        parts.push(file.sig_text(k));
    }
    parts.join(" ")
}

/// Parses a `struct` item starting at the `struct` keyword, returning
/// the item and the index to resume scanning from.
fn parse_struct(file: &SourceFile, at: usize) -> (Option<StructItem>, usize) {
    let n = file.sig.len();
    let name_idx = at + 1;
    if name_idx >= n || file.sig_kind(name_idx) != TokenKind::Ident {
        return (None, at + 1);
    }
    let name = file.sig_text(name_idx).to_string();
    let is_pub = has_pub_qualifier(file, at);
    let line = file.sig_line(at);
    let mut j = name_idx + 1;
    if j < n && file.sig_text(j) == "<" {
        match skip_angles(file, j) {
            Some(after) => j = after,
            None => return (None, at + 1),
        }
    }
    // `where` clauses sit between generics and the brace.
    let mut guard = 0usize;
    while j < n && !matches!(file.sig_text(j), "{" | "(" | ";") && guard < 256 {
        j += 1;
        guard += 1;
    }
    if j >= n || file.sig_text(j) != "{" {
        // Tuple or unit struct: no named fields to audit.
        return (
            Some(StructItem {
                name,
                is_pub,
                line,
                at,
                fields: Vec::new(),
            }),
            at + 1,
        );
    }
    let close = matching_close(file, j);
    let fields = parse_fields(file, j + 1, close);
    (
        Some(StructItem {
            name,
            is_pub,
            line,
            at,
            fields,
        }),
        j + 1,
    )
}

/// Parses `name: Type` fields from the body range of a struct.
fn parse_fields(file: &SourceFile, start: usize, end: usize) -> Vec<FieldItem> {
    let mut fields = Vec::new();
    let mut j = start;
    while j < end {
        // Skip attributes and doc tokens.
        if file.sig_text(j) == "#" {
            let mut depth = 0usize;
            j += 1;
            while j < end {
                match file.sig_text(j) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            j += 1;
            continue;
        }
        let mut is_pub = false;
        if file.sig_text(j) == "pub" {
            is_pub = true;
            j += 1;
            if j < end && file.sig_text(j) == "(" {
                while j < end && file.sig_text(j) != ")" {
                    j += 1;
                }
                j += 1;
            }
        }
        if j >= end || file.sig_kind(j) != TokenKind::Ident {
            j += 1;
            continue;
        }
        if j + 1 >= end || file.sig_text(j + 1) != ":" {
            j += 1;
            continue;
        }
        let name = file.sig_text(j).to_string();
        let line = file.sig_line(j);
        // The type runs to the next comma at this nesting level.
        let mut depth = 0usize;
        let mut k = j + 2;
        while k < end {
            match file.sig_text(k) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                "<" => depth += 1,
                ">" => depth = depth.saturating_sub(1),
                "," if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        fields.push(FieldItem {
            name,
            ty: type_text(file, j + 2, k),
            is_pub,
            line,
            at: j,
        });
        j = k + 1;
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&SourceFile::new(
            "crates/x/src/lib.rs".to_string(),
            src.to_string(),
            false,
        ))
    }

    #[test]
    fn fn_items_capture_name_visibility_params_and_body() {
        let parsed =
            parse_src("pub fn add(a_ms: f64, b: &Vec<f64>) -> f64 { a_ms }\nfn private() {}\n");
        assert_eq!(parsed.fns.len(), 2);
        let add = &parsed.fns[0];
        assert_eq!(add.name, "add");
        assert!(add.is_pub);
        assert_eq!(add.params.len(), 2);
        assert_eq!(add.params[0].name, "a_ms");
        assert!(add.params[0].is_bare_f64());
        assert!(!add.params[1].is_bare_f64());
        assert!(add.body.is_some());
        assert!(!parsed.fns[1].is_pub);
    }

    #[test]
    fn impl_blocks_qualify_methods() {
        let parsed = parse_src(
            "struct Foo;\nimpl Foo {\n    pub fn get(&self) -> f64 { 1.0 }\n    fn set(&mut self) {}\n}\n\
             impl std::fmt::Display for Foo {\n    fn fmt(&self) -> bool { true }\n}\n\
             fn free() {}\n",
        );
        let names: Vec<String> = parsed.fns.iter().map(FnItem::qualified).collect();
        // Every method keeps its impl's type; the impl closes at its own `}`.
        assert_eq!(names, vec!["Foo::get", "Foo::set", "Foo::fmt", "free"]);
        // Receiver `&self` is not a param.
        assert!(parsed.fns[0].params.is_empty());
    }

    #[test]
    fn struct_fields_capture_types_and_visibility() {
        let parsed = parse_src(
            "pub struct Cell {\n    pub raw: f64,\n    #[serde(default)]\n    count: u32,\n    \
             grams: GramsCo2e,\n}\nstruct Unit;\npub struct Pair(f64, f64);\n",
        );
        assert_eq!(parsed.structs.len(), 3);
        let cell = &parsed.structs[0];
        assert!(cell.is_pub);
        assert_eq!(cell.fields.len(), 3);
        assert!(cell.fields[0].is_pub && cell.fields[0].is_bare_f64());
        assert!(!cell.fields[1].is_pub && !cell.fields[1].is_bare_f64());
        assert_eq!(cell.fields[2].ty, "GramsCo2e");
        assert!(parsed.structs[1].fields.is_empty());
        assert!(parsed.structs[2].fields.is_empty());
    }

    #[test]
    fn nested_fns_are_both_visited() {
        let parsed = parse_src("fn outer() {\n    fn inner(x: f64) {}\n}\n");
        let names: Vec<&str> = parsed.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn generic_fns_and_where_clauses_parse() {
        let parsed = parse_src(
            "pub fn pick<T: Ord>(items: &[T], index_fraction: f64) -> &T where T: Clone { \
             &items[0] }\n",
        );
        assert_eq!(parsed.fns.len(), 1);
        assert_eq!(parsed.fns[0].params.len(), 2);
        assert_eq!(parsed.fns[0].params[1].name, "index_fraction");
    }
}
