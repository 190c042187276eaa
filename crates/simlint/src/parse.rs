//! Item-level parser over the [`crate::lexer`] token stream.
//!
//! simlint's item rules need real structure, not line patterns: which
//! fields a struct declares, which methods an `impl` block defines and
//! which identifiers their bodies mention, where `unsafe` appears and
//! whether a `// SAFETY:` comment sits next to it, and which
//! `cfg(feature = "...")` gates exist. This module extracts exactly that —
//! a deliberately shallow grammar (brace-tracked item nesting, no
//! expression parsing) that is robust to everything the workspace writes.
//!
//! The parser also evaluates `#[cfg(...)]` attributes against a
//! [`CfgView`]: `test` is always disabled (test code is never linted),
//! `feature = "x"` follows the view's enabled set, and every other
//! predicate (target_arch, unix, ...) is assumed true. Items whose cfg
//! evaluates false are skipped and their line ranges masked, which is how
//! one binary serves both the default and `--features invariants` views.

use std::collections::BTreeSet;

use crate::lexer::{self, TokenKind};

/// Which cfg atoms are enabled for this analysis pass.
#[derive(Debug, Default, Clone)]
pub struct CfgView {
    /// Cargo features considered enabled (`feature = "x"` atoms).
    pub features: BTreeSet<String>,
}

impl CfgView {
    /// A view with the given features enabled.
    pub fn with_features<S: Into<String>>(features: impl IntoIterator<Item = S>) -> Self {
        CfgView {
            features: features.into_iter().map(Into::into).collect(),
        }
    }
}

/// One named field of a struct.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// 1-based line of the field name.
    pub line: usize,
    /// Whether a `simlint::shared` marker comment covers the field.
    pub shared: bool,
}

/// A struct item with named fields (unit/tuple structs have none).
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// Traits named in `#[derive(...)]` attributes on the struct.
    pub derives: Vec<String>,
    /// Named fields in declaration order.
    pub fields: Vec<FieldDef>,
}

/// One function inside an `impl` (or trait) body.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the function is declared `unsafe`.
    pub is_unsafe: bool,
    /// 1-based line of the last token of the item (the closing brace of
    /// the body, or the `;` of a bodyless signature).
    pub end_line: usize,
    /// Every identifier mentioned in the body (fields, locals, calls).
    pub body_idents: BTreeSet<String>,
}

/// An `impl` block (or trait definition body, flagged by `is_trait_def`).
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// The implemented type's name (last path segment before generics),
    /// or the trait's own name for a trait definition.
    pub type_name: String,
    /// For `impl Trait for Type`, the trait's name.
    pub trait_name: Option<String>,
    /// 1-based line of the `impl`/`trait` keyword.
    pub line: usize,
    /// True when this is a `trait` definition body, not an `impl`.
    pub is_trait_def: bool,
    /// Functions defined in the body.
    pub fns: Vec<FnDef>,
}

/// What kind of construct an `unsafe` keyword introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// `unsafe { ... }` block.
    Block,
    /// `unsafe fn`.
    Fn,
    /// `unsafe impl`.
    Impl,
    /// `unsafe trait`.
    Trait,
}

/// One `unsafe` occurrence.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// 1-based line of the `unsafe` keyword.
    pub line: usize,
    /// What it introduces.
    pub kind: UnsafeKind,
    /// Whether an adjacent comment carries `SAFETY:` (or a `# Safety`
    /// doc section above the item's attributes).
    pub has_safety: bool,
}

/// One `feature = "..."` reference inside `cfg(...)`/`cfg!(...)`/
/// `cfg_attr(...)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgRef {
    /// 1-based line of the reference.
    pub line: usize,
    /// The feature name.
    pub feature: String,
}

/// A `mod name;` declaration referencing another file.
#[derive(Debug, Clone)]
pub struct ModDecl {
    /// Module name.
    pub name: String,
    /// Whether its cfg gate is enabled under the current view.
    pub enabled: bool,
    /// 1-based line of the declaration.
    pub line: usize,
}

/// Everything the parser extracts from one file under one cfg view.
#[derive(Debug, Default)]
pub struct FileSyntax {
    /// Structs with named fields.
    pub structs: Vec<StructDef>,
    /// Impl blocks and trait-definition bodies.
    pub impls: Vec<ImplDef>,
    /// Every `unsafe` occurrence outside masked regions.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Every `feature = "..."` reference (masked regions included — the
    /// attribute text is visible to the compiler in every view).
    pub cfg_refs: Vec<CfgRef>,
    /// Out-of-line module declarations.
    pub mods: Vec<ModDecl>,
    /// 1-based inclusive line ranges excluded under this view.
    pub masked: Vec<(usize, usize)>,
}

impl FileSyntax {
    /// A per-line mask (index 0 = line 1) over `line_count` lines.
    pub fn masked_lines(&self, line_count: usize) -> Vec<bool> {
        let mut mask = vec![false; line_count];
        for &(a, b) in &self.masked {
            for line in a..=b.min(line_count) {
                if line >= 1 {
                    mask[line - 1] = true;
                }
            }
        }
        mask
    }
}

/// Internal: significant (non-comment) token plus its text.
#[derive(Debug, Clone, Copy)]
struct Tok<'a> {
    kind: TokenKind,
    text: &'a str,
    line: usize,
}

/// Parses one file under the given view.
pub fn parse(src: &str, view: &CfgView) -> FileSyntax {
    let tokens = lexer::lex(src);
    let mut sig: Vec<Tok> = Vec::with_capacity(tokens.len());
    let mut comments: Vec<(usize, &str)> = Vec::new();
    let mut comment_only: BTreeSet<usize> = BTreeSet::new();
    let mut code_lines: BTreeSet<usize> = BTreeSet::new();
    for t in &tokens {
        if t.is_comment() {
            comments.push((t.line, t.text(src)));
        } else {
            sig.push(Tok {
                kind: t.kind,
                text: t.text(src),
                line: t.line,
            });
            // Multi-line tokens (strings) occupy code lines throughout.
            for l in t.line..=t.line + t.text(src).matches('\n').count() {
                code_lines.insert(l);
            }
        }
    }
    for &(line, text) in &comments {
        for (i, _) in text.match_indices('\n') {
            let _ = i;
        }
        let span = text.matches('\n').count();
        for l in line..=line + span {
            if !code_lines.contains(&l) {
                comment_only.insert(l);
            }
        }
    }

    let mut p = Parser {
        t: sig,
        i: 0,
        out: FileSyntax::default(),
        view,
        comments,
        comment_only,
    };
    p.parse_items(false);
    p.out
}

struct Parser<'a> {
    t: Vec<Tok<'a>>,
    i: usize,
    out: FileSyntax,
    view: &'a CfgView,
    comments: Vec<(usize, &'a str)>,
    comment_only: BTreeSet<usize>,
}

/// Result of consuming one attribute run.
#[derive(Debug, Default)]
struct AttrInfo {
    /// Conjunction of every `#[cfg(...)]` seen, under the view.
    enabled: bool,
    /// Traits collected from `#[derive(...)]`.
    derives: Vec<String>,
    /// Line of the first attribute, if any.
    first_line: Option<usize>,
}

impl<'a> Parser<'a> {
    fn peek(&self, ahead: usize) -> Option<&Tok<'a>> {
        self.t.get(self.i + ahead)
    }

    fn peek_text(&self, ahead: usize) -> &str {
        self.t.get(self.i + ahead).map_or("", |t| t.text)
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.t.get(self.i).copied();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.i >= self.t.len()
    }

    fn cur_line(&self) -> usize {
        self.peek(0).map_or_else(
            || self.t.last().map_or(1, |t| t.line),
            |t| t.line,
        )
    }

    fn last_line(&self) -> usize {
        if self.i == 0 {
            1
        } else {
            self.t[self.i - 1].line
        }
    }

    /// Consumes a balanced `(`/`[`/`{` group the cursor sits on.
    fn skip_balanced(&mut self) {
        let open = self.peek_text(0).to_string();
        let close = match open.as_str() {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => {
                self.bump();
                return;
            }
        };
        self.bump();
        let mut depth = 1usize;
        while depth > 0 && !self.at_end() {
            let t = self.peek_text(0);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
            }
            self.bump();
        }
    }

    /// Consumes a balanced `<...>` generics group if present.
    fn skip_generics(&mut self) {
        if self.peek_text(0) != "<" {
            return;
        }
        let mut depth = 0i64;
        while !self.at_end() {
            match self.peek_text(0) {
                "<" => depth += 1,
                ">" => depth -= 1,
                // `->` never appears inside item generics; parens/brackets
                // inside bounds nest via skip_balanced-free counting.
                _ => {}
            }
            self.bump();
            if depth <= 0 {
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Attributes and cfg evaluation

    /// Consumes `#[...]` / `#![...]` runs at the cursor.
    fn parse_attrs(&mut self) -> AttrInfo {
        let mut info = AttrInfo {
            enabled: true,
            ..AttrInfo::default()
        };
        loop {
            if self.peek_text(0) != "#" {
                return info;
            }
            let mut j = 1usize;
            if self.peek_text(j) == "!" {
                j += 1;
            }
            if self.peek_text(j) != "[" {
                return info;
            }
            if info.first_line.is_none() {
                info.first_line = Some(self.cur_line());
            }
            self.bump(); // '#'
            if self.peek_text(0) == "!" {
                self.bump();
            }
            // Capture the attribute's token range by consuming '[...]'.
            let start = self.i + 1;
            self.skip_balanced();
            let end = self.i.saturating_sub(1); // points past ']'
            let head = self.t.get(start).map_or("", |t| t.text);
            match head {
                "cfg" => {
                    info.enabled &= self.eval_cfg_group(start + 1, end);
                }
                "cfg_attr" => {
                    // Collect refs from the condition; never evaluate.
                    self.collect_cfg_refs(start + 1, end);
                }
                "derive" => {
                    for k in start + 1..end {
                        if self.t[k].kind == TokenKind::Ident {
                            info.derives.push(self.t[k].text.to_string());
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Evaluates the `(...)` group of a `cfg` attribute spanning token
    /// indices `[start, end)` (start sits on the opening paren).
    fn eval_cfg_group(&mut self, start: usize, end: usize) -> bool {
        if self.t.get(start).map_or("", |t| t.text) != "(" {
            return true;
        }
        let mut k = start + 1;
        self.eval_cfg_expr(&mut k, end)
    }

    /// Recursive cfg predicate evaluation; `k` advances through tokens.
    fn eval_cfg_expr(&mut self, k: &mut usize, end: usize) -> bool {
        let Some(atom) = self.t.get(*k) else {
            return true;
        };
        if atom.kind != TokenKind::Ident {
            *k += 1;
            return true;
        }
        let name = atom.text.to_string();
        *k += 1;
        if self.t.get(*k).map_or("", |t| t.text) == "(" {
            // all(...) / any(...) / not(...) / unknown(...)
            *k += 1;
            let mut args = Vec::new();
            while *k < end && self.t.get(*k).map_or("", |t| t.text) != ")" {
                if self.t.get(*k).map_or("", |t| t.text) == "," {
                    *k += 1;
                    continue;
                }
                args.push(self.eval_cfg_expr(k, end));
            }
            *k += 1; // ')'
            return match name.as_str() {
                "all" => args.into_iter().all(|v| v),
                "any" => args.into_iter().any(|v| v),
                "not" => !args.first().copied().unwrap_or(false),
                _ => true,
            };
        }
        if self.t.get(*k).map_or("", |t| t.text) == "=" {
            *k += 1;
            let val = self.t.get(*k).copied();
            *k += 1;
            if name == "feature" {
                if let Some(v) = val {
                    let feature = v.text.trim_matches('"').to_string();
                    self.out.cfg_refs.push(CfgRef {
                        line: v.line,
                        feature: feature.clone(),
                    });
                    return self.view.features.contains(&feature);
                }
            }
            return true; // target_arch = "...", target_os = "...", ...
        }
        match name.as_str() {
            "test" => false,
            _ => true, // unix, windows, debug_assertions, ...
        }
    }

    /// Collects `feature = "..."` refs in `[start, end)` without
    /// evaluating (used for `cfg_attr` conditions and `cfg!` macros).
    fn collect_cfg_refs(&mut self, start: usize, end: usize) {
        let mut k = start;
        while k + 2 < end.min(self.t.len()) {
            if self.t[k].text == "feature" && self.t[k + 1].text == "=" {
                let v = self.t[k + 2];
                if v.kind == TokenKind::Str {
                    self.out.cfg_refs.push(CfgRef {
                        line: v.line,
                        feature: v.text.trim_matches('"').to_string(),
                    });
                }
                k += 3;
            } else {
                k += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Items

    /// Parses items until end of input or, when `until_close`, a closing
    /// brace (consumed).
    fn parse_items(&mut self, until_close: bool) {
        while !self.at_end() {
            if self.peek_text(0) == "}" {
                if until_close {
                    self.bump();
                }
                return;
            }
            self.parse_one_item();
        }
    }

    fn parse_one_item(&mut self) {
        let attrs = self.parse_attrs();
        let mask_from = attrs.first_line.unwrap_or_else(|| self.cur_line());
        // Visibility.
        let vis_start = self.i;
        if self.peek_text(0) == "pub" {
            self.bump();
            if self.peek_text(0) == "(" {
                self.skip_balanced();
            }
        }
        // Leading modifiers before the defining keyword.
        let mut j = 0usize;
        while matches!(self.peek_text(j), "default" | "const" | "async" | "unsafe") {
            // `const` could itself be the defining keyword (`const X: ...`);
            // only treat it as a modifier when followed by `fn`.
            if self.peek_text(j) == "const" && self.peek_text(j + 1) != "fn" {
                break;
            }
            j += 1;
        }
        if self.peek_text(j) == "extern" && self.peek_text(j + 1) != "crate" {
            j += 1;
            if self.peek(j).is_some_and(|t| t.kind == TokenKind::Str) {
                j += 1;
            }
        }
        let kw = self.peek_text(j).to_string();

        if !attrs.enabled {
            // Record gated out-of-line mods even when skipping.
            if kw == "mod" && self.peek_text(j + 2) == ";" {
                self.out.mods.push(ModDecl {
                    name: self.peek_text(j + 1).to_string(),
                    enabled: false,
                    line: self.cur_line(),
                });
            }
            self.i = vis_start; // rewind so skip sees the whole item
            self.skip_item(&kw);
            self.out.masked.push((mask_from, self.last_line()));
            return;
        }

        // An `unsafe` prefix is recorded per item kind below via
        // `note_unsafe_prefix` while the modifier scan walks forward.
        match kw.as_str() {
            "struct" | "union" => self.parse_struct(&attrs),
            "impl" => {
                self.note_unsafe_prefix(attrs.first_line, UnsafeKind::Impl);
                self.advance_to_kw("impl");
                self.parse_impl(false);
            }
            "trait" => {
                self.note_unsafe_prefix(attrs.first_line, UnsafeKind::Trait);
                self.advance_to_kw("trait");
                self.parse_trait();
            }
            "fn" => {
                self.note_unsafe_prefix(attrs.first_line, UnsafeKind::Fn);
                self.advance_to_kw("fn");
                let _ = self.parse_fn_after_kw(attrs.first_line);
            }
            "mod" => {
                self.advance_to_kw("mod");
                self.bump(); // 'mod'
                let name = self.peek_text(0).to_string();
                let line = self.cur_line();
                self.bump();
                match self.peek_text(0) {
                    ";" => {
                        self.bump();
                        self.out.mods.push(ModDecl {
                            name,
                            enabled: true,
                            line,
                        });
                    }
                    "{" => {
                        self.bump();
                        self.parse_items(true);
                    }
                    _ => {}
                }
            }
            "macro_rules" => {
                self.skip_item("macro_rules");
            }
            "enum" | "use" | "static" | "type" | "extern" | "const" => {
                self.skip_item(&kw);
            }
            ";" => {
                self.bump();
            }
            "{" => {
                self.skip_balanced();
            }
            _ => {
                self.bump(); // resync on anything unexpected
            }
        }
    }

    /// If the tokens between the cursor and the defining keyword include
    /// `unsafe`, records an unsafe site of the given kind.
    fn note_unsafe_prefix(&mut self, attr_line: Option<usize>, kind: UnsafeKind) {
        let mut j = 0usize;
        while j < 6 {
            let t = self.peek_text(j);
            if t == "unsafe" {
                let line = self.peek(j).map_or(1, |t| t.line);
                let site = self.make_unsafe_site(line, attr_line, kind);
                self.out.unsafe_sites.push(site);
                return;
            }
            if matches!(t, "fn" | "impl" | "trait") || t.is_empty() {
                return;
            }
            j += 1;
        }
    }

    /// Advances the cursor to the next occurrence of `kw` (bounded).
    fn advance_to_kw(&mut self, kw: &str) {
        let mut guard = 0usize;
        while !self.at_end() && self.peek_text(0) != kw && guard < 8 {
            self.bump();
            guard += 1;
        }
    }

    fn make_unsafe_site(
        &self,
        line: usize,
        attr_line: Option<usize>,
        kind: UnsafeKind,
    ) -> UnsafeSite {
        let anchor = attr_line.unwrap_or(line).min(line);
        UnsafeSite {
            line,
            kind,
            has_safety: self.safety_adjacent(anchor, line),
        }
    }

    /// True if a `SAFETY:` comment (or `# Safety` doc section) sits on the
    /// site's line or in the contiguous comment run directly above
    /// `anchor` (the first attribute line, so doc sections above
    /// `#[target_feature]` count).
    fn safety_adjacent(&self, anchor: usize, site_line: usize) -> bool {
        let has = |l: usize| {
            self.comments
                .iter()
                .any(|&(cl, text)| cl == l && (text.contains("SAFETY:") || text.contains("# Safety")))
        };
        for l in anchor..=site_line {
            if has(l) {
                return true;
            }
        }
        let mut l = anchor.saturating_sub(1);
        while l >= 1 && self.comment_only.contains(&l) {
            if has(l) {
                return true;
            }
            if l == 1 {
                break;
            }
            l -= 1;
        }
        false
    }

    // ------------------------------------------------------------------
    // Structs

    fn parse_struct(&mut self, attrs: &AttrInfo) {
        self.advance_to_kw("struct");
        if self.peek_text(0) != "struct" {
            // `union` shares field syntax.
            self.advance_to_kw("union");
        }
        let line = self.cur_line();
        self.bump(); // struct/union
        let name = self.peek_text(0).to_string();
        self.bump();
        self.skip_generics();
        if self.peek_text(0) == "where" {
            while !self.at_end() && !matches!(self.peek_text(0), "{" | ";") {
                self.bump();
            }
        }
        let mut def = StructDef {
            name,
            line,
            derives: attrs.derives.clone(),
            fields: Vec::new(),
        };
        match self.peek_text(0) {
            ";" => {
                self.bump();
            }
            "(" => {
                self.skip_balanced();
                if self.peek_text(0) == ";" {
                    self.bump();
                }
            }
            "{" => {
                self.bump();
                self.parse_fields(&mut def);
            }
            _ => {}
        }
        self.out.structs.push(def);
    }

    /// Parses named fields until the struct's closing brace (consumed).
    fn parse_fields(&mut self, def: &mut StructDef) {
        let mut prev_field_line = def.line;
        while !self.at_end() {
            if self.peek_text(0) == "}" {
                self.bump();
                return;
            }
            let attrs = self.parse_attrs();
            if self.peek_text(0) == "pub" {
                self.bump();
                if self.peek_text(0) == "(" {
                    self.skip_balanced();
                }
            }
            let Some(name_tok) = self.peek(0).copied() else {
                return;
            };
            if name_tok.kind != TokenKind::Ident || self.peek_text(1) != ":" {
                self.bump();
                continue;
            }
            self.bump(); // name
            self.bump(); // ':'
            // Consume the type up to the separating comma (depth-aware).
            let mut depth = 0i64;
            let mut angle = 0i64;
            while let Some(t) = self.peek(0) {
                match t.text {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "}" if depth == 0 => break,
                    "}" => depth -= 1,
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "," if depth == 0 && angle <= 0 => {
                        self.bump();
                        break;
                    }
                    _ => {}
                }
                self.bump();
            }
            let shared = attrs.enabled
                && self.marker_covers(prev_field_line, name_tok.line);
            if attrs.enabled {
                def.fields.push(FieldDef {
                    name: name_tok.text.to_string(),
                    line: name_tok.line,
                    shared,
                });
            }
            prev_field_line = name_tok.line;
        }
    }

    /// True if a `simlint::shared` marker comment sits on a line in
    /// `(after, upto]` — i.e. between the previous field and this one,
    /// inclusive of the field's own line.
    fn marker_covers(&self, after: usize, upto: usize) -> bool {
        self.comments.iter().any(|&(line, text)| {
            line > after && line <= upto && text.contains("simlint::shared")
        })
    }

    // ------------------------------------------------------------------
    // Impls, traits, fns

    /// Cursor on `impl`.
    fn parse_impl(&mut self, _unsafe_impl: bool) {
        let line = self.cur_line();
        self.bump(); // impl
        self.skip_generics();
        // First path (trait or self type).
        let first = self.parse_type_path();
        let (trait_name, type_name) = if self.peek_text(0) == "for" {
            self.bump();
            let ty = self.parse_type_path();
            (Some(first), ty)
        } else {
            (None, first)
        };
        if self.peek_text(0) == "where" {
            while !self.at_end() && self.peek_text(0) != "{" {
                self.bump();
            }
        }
        let mut def = ImplDef {
            type_name,
            trait_name,
            line,
            is_trait_def: false,
            fns: Vec::new(),
        };
        if self.peek_text(0) == "{" {
            self.bump();
            self.parse_member_body(&mut def);
        } else if self.peek_text(0) == ";" {
            self.bump();
        }
        self.out.impls.push(def);
    }

    /// Cursor on `trait`.
    fn parse_trait(&mut self) {
        let line = self.cur_line();
        self.bump(); // trait
        let name = self.peek_text(0).to_string();
        self.bump();
        while !self.at_end() && !matches!(self.peek_text(0), "{" | ";") {
            self.bump();
        }
        let mut def = ImplDef {
            type_name: name,
            trait_name: None,
            line,
            is_trait_def: true,
            fns: Vec::new(),
        };
        if self.peek_text(0) == "{" {
            self.bump();
            self.parse_member_body(&mut def);
        } else {
            self.bump();
        }
        self.out.impls.push(def);
    }

    /// The last plain identifier of a type path, skipping generic
    /// arguments: `crate::queue::EventQueue<E>` → `EventQueue`,
    /// `Box<dyn SchedHook>` → `Box`, `&mut [f64]` → `f64`.
    fn parse_type_path(&mut self) -> String {
        let mut name = String::new();
        let mut angle = 0i64;
        while let Some(t) = self.peek(0) {
            match t.text {
                "<" => {
                    angle += 1;
                    self.bump();
                }
                ">" => {
                    angle -= 1;
                    self.bump();
                    if angle <= 0 && !matches!(self.peek_text(0), "::" | ":") {
                        // `>` may end the path's own generics.
                    }
                }
                "for" | "where" | "{" | ";" if angle <= 0 => break,
                _ => {
                    if angle <= 0 && t.kind == TokenKind::Ident
                        && !matches!(t.text, "dyn" | "impl" | "mut" | "const")
                    {
                        name = t.text.to_string();
                    }
                    self.bump();
                }
            }
        }
        name
    }

    /// Parses impl/trait members until the closing brace (consumed).
    fn parse_member_body(&mut self, def: &mut ImplDef) {
        while !self.at_end() {
            if self.peek_text(0) == "}" {
                self.bump();
                return;
            }
            let attrs = self.parse_attrs();
            let mask_from = attrs.first_line.unwrap_or_else(|| self.cur_line());
            if !attrs.enabled {
                self.skip_member();
                self.out.masked.push((mask_from, self.last_line()));
                continue;
            }
            if self.peek_text(0) == "pub" {
                self.bump();
                if self.peek_text(0) == "(" {
                    self.skip_balanced();
                }
            }
            // Modifiers: default/const/async/unsafe/extern "C".
            let mut is_unsafe = false;
            loop {
                match self.peek_text(0) {
                    "unsafe" => {
                        is_unsafe = true;
                        let line = self.cur_line();
                        let site = self.make_unsafe_site(line, attrs.first_line, UnsafeKind::Fn);
                        self.out.unsafe_sites.push(site);
                        self.bump();
                    }
                    "default" | "async" => {
                        self.bump();
                    }
                    "const" if self.peek_text(1) == "fn" => {
                        self.bump();
                    }
                    "extern" => {
                        self.bump();
                        if self.peek(0).is_some_and(|t| t.kind == TokenKind::Str) {
                            self.bump();
                        }
                    }
                    _ => break,
                }
            }
            match self.peek_text(0) {
                "fn" => {
                    if let Some(mut f) = self.parse_fn_after_kw(attrs.first_line) {
                        f.is_unsafe = is_unsafe;
                        def.fns.push(f);
                    }
                }
                "type" | "const" | "static" | "use" | "macro_rules" => {
                    self.skip_member();
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Consumes one member up to `;` at depth 0 or past its `{...}` body.
    fn skip_member(&mut self) {
        let mut depth = 0i64;
        while let Some(t) = self.peek(0) {
            match t.text {
                ";" if depth == 0 => {
                    self.bump();
                    return;
                }
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" => {
                    if depth == 0 {
                        self.skip_balanced();
                        return;
                    }
                    depth += 1;
                }
                "}" => {
                    if depth <= 0 {
                        return; // parent's closing brace
                    }
                    depth -= 1;
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Cursor on `fn`. Parses the signature and scans the body.
    fn parse_fn_after_kw(&mut self, attr_line: Option<usize>) -> Option<FnDef> {
        let line = self.cur_line();
        self.bump(); // fn
        let name = self.peek_text(0).to_string();
        self.bump();
        // Signature up to the body brace or a trailing `;`.
        let mut depth = 0i64;
        while let Some(t) = self.peek(0) {
            match t.text {
                ";" if depth == 0 => {
                    self.bump();
                    return Some(FnDef {
                        name,
                        line,
                        is_unsafe: false,
                        end_line: self.last_line(),
                        body_idents: BTreeSet::new(),
                    });
                }
                "{" if depth == 0 => break,
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
            self.bump();
        }
        if self.peek_text(0) != "{" {
            return Some(FnDef {
                name,
                line,
                is_unsafe: false,
                end_line: self.last_line(),
                body_idents: BTreeSet::new(),
            });
        }
        self.bump(); // body '{'
        let body_idents = self.scan_body(attr_line);
        Some(FnDef {
            name,
            line,
            is_unsafe: false,
            end_line: self.last_line(),
            body_idents,
        })
    }

    /// Scans a `{}`-delimited body (opening brace already consumed):
    /// collects identifiers, records `unsafe {` sites, collects
    /// `cfg!(...)` refs, and masks statements gated by false cfg attrs.
    fn scan_body(&mut self, _attr_line: Option<usize>) -> BTreeSet<String> {
        let mut idents = BTreeSet::new();
        let mut depth = 1i64;
        while let Some(t) = self.peek(0).copied() {
            match t.text {
                "{" => {
                    depth += 1;
                    self.bump();
                }
                "}" => {
                    depth -= 1;
                    self.bump();
                    if depth == 0 {
                        return idents;
                    }
                }
                "unsafe" if self.peek_text(1) == "{" => {
                    let site = self.make_unsafe_site(t.line, None, UnsafeKind::Block);
                    self.out.unsafe_sites.push(site);
                    self.bump();
                }
                "#" if self.peek_text(1) == "[" => {
                    let attrs = self.parse_attrs();
                    if !attrs.enabled {
                        let from = attrs.first_line.unwrap_or(t.line);
                        self.skip_statement();
                        self.out.masked.push((from, self.last_line()));
                    }
                }
                "cfg" if self.peek_text(1) == "!" && self.peek_text(2) == "(" => {
                    let start = self.i + 2;
                    self.bump();
                    self.bump();
                    self.skip_balanced();
                    let end = self.i;
                    self.collect_cfg_refs(start, end);
                }
                _ => {
                    if t.kind == TokenKind::Ident {
                        idents.insert(t.text.to_string());
                    }
                    self.bump();
                }
            }
        }
        idents
    }

    /// Consumes one statement: up to `;` at relative depth 0, or through
    /// the first `{...}` group opened at relative depth 0 (an `if`/`for`/
    /// block statement), whichever ends first.
    fn skip_statement(&mut self) {
        let mut depth = 0i64;
        while let Some(t) = self.peek(0) {
            match t.text {
                ";" if depth == 0 => {
                    self.bump();
                    return;
                }
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" => {
                    if depth == 0 {
                        self.skip_balanced();
                        // `if cond {} else {}` trailing else-blocks.
                        while self.peek_text(0) == "else" {
                            self.bump();
                            if self.peek_text(0) == "if" {
                                self.bump();
                                while !self.at_end()
                                    && self.peek_text(0) != "{"
                                {
                                    self.bump();
                                }
                            }
                            if self.peek_text(0) == "{" {
                                self.skip_balanced();
                            }
                        }
                        return;
                    }
                    depth += 1;
                }
                "}" => {
                    if depth <= 0 {
                        return;
                    }
                    depth -= 1;
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Skips one whole item (used for cfg-disabled items), choosing the
    /// terminator by keyword.
    fn skip_item(&mut self, kw: &str) {
        match kw {
            "use" | "const" | "static" | "type" => {
                // Ends at `;` at depth 0; initializer braces count depth.
                let mut depth = 0i64;
                while let Some(t) = self.peek(0) {
                    match t.text {
                        ";" if depth == 0 => {
                            self.bump();
                            return;
                        }
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "}" => {
                            if depth <= 0 {
                                return;
                            }
                            depth -= 1;
                        }
                        _ => {}
                    }
                    self.bump();
                }
            }
            _ => {
                // Ends at `;` at depth 0 before any body, else past the
                // first `{...}` at depth 0 (fn/impl/mod/struct bodies).
                let mut depth = 0i64;
                while let Some(t) = self.peek(0) {
                    match t.text {
                        ";" if depth == 0 => {
                            self.bump();
                            return;
                        }
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" => {
                            if depth == 0 {
                                self.skip_balanced();
                                return;
                            }
                            depth += 1;
                        }
                        "}" => {
                            if depth <= 0 {
                                return;
                            }
                            depth -= 1;
                        }
                        _ => {}
                    }
                    self.bump();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_default(src: &str) -> FileSyntax {
        parse(src, &CfgView::default())
    }

    #[test]
    fn struct_fields_and_derives() {
        let src = "#[derive(Debug, Clone)]\n\
                   pub struct Machine {\n\
                       config: MachineConfig,\n\
                       // simlint::shared: immutable topology\n\
                       nodes: Vec<NodeId>,\n\
                       temps: Vec<f64>,\n\
                   }\n";
        let s = parse_default(src);
        assert_eq!(s.structs.len(), 1);
        let m = &s.structs[0];
        assert_eq!(m.name, "Machine");
        assert_eq!(m.derives, vec!["Debug", "Clone"]);
        let names: Vec<&str> = m.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["config", "nodes", "temps"]);
        assert!(!m.fields[0].shared);
        assert!(m.fields[1].shared);
        assert!(!m.fields[2].shared);
    }

    #[test]
    fn impl_methods_and_body_idents() {
        let src = "impl Machine {\n\
                       pub fn snapshot(&self) -> Snap {\n\
                           Snap { a: self.alpha.clone(), b: self.beta }\n\
                       }\n\
                       fn other(&self) {}\n\
                   }\n\
                   impl Clone for Machine {\n\
                       fn clone(&self) -> Self { self.helper() }\n\
                   }\n";
        let s = parse_default(src);
        assert_eq!(s.impls.len(), 2);
        assert_eq!(s.impls[0].type_name, "Machine");
        assert_eq!(s.impls[0].trait_name, None);
        let snap = &s.impls[0].fns[0];
        assert_eq!(snap.name, "snapshot");
        assert!(snap.body_idents.contains("alpha"));
        assert!(snap.body_idents.contains("beta"));
        assert_eq!(s.impls[1].trait_name.as_deref(), Some("Clone"));
        assert_eq!(s.impls[1].fns[0].name, "clone");
        assert!(s.impls[1].fns[0].body_idents.contains("helper"));
    }

    #[test]
    fn impl_for_box_reports_box() {
        let src = "impl Clone for Box<dyn SchedHook> { fn clone(&self) -> Self { self.clone_box() } }";
        let s = parse_default(src);
        assert_eq!(s.impls[0].type_name, "Box");
    }

    #[test]
    fn generic_impl_type_name() {
        let src = "impl<E: Clone> EventQueue<E> { fn push(&mut self, e: E) { self.heap.push(e); } }";
        let s = parse_default(src);
        assert_eq!(s.impls[0].type_name, "EventQueue");
        assert_eq!(s.impls[0].fns[0].name, "push");
    }

    #[test]
    fn unsafe_sites_and_safety_comments() {
        let src = "fn f() {\n\
                       // SAFETY: checked above\n\
                       unsafe { g() };\n\
                       unsafe { h() };\n\
                   }\n\
                   /// Docs.\n\
                   ///\n\
                   /// # Safety\n\
                   /// Caller must check AVX2.\n\
                   #[target_feature(enable = \"avx2\")]\n\
                   pub unsafe fn kernel() {}\n";
        let s = parse_default(src);
        assert_eq!(s.unsafe_sites.len(), 3);
        assert!(s.unsafe_sites[0].has_safety, "block with SAFETY comment");
        assert!(!s.unsafe_sites[1].has_safety, "bare block");
        let f = s
            .unsafe_sites
            .iter()
            .find(|u| u.kind == UnsafeKind::Fn)
            .expect("fn site");
        assert!(f.has_safety, "doc # Safety section above attributes");
    }

    #[test]
    fn cfg_test_items_are_masked() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { x.unwrap(); }\n\
                   }\n\
                   fn tail() {}\n";
        let s = parse_default(src);
        let mask = s.masked_lines(6);
        assert!(!mask[0] && mask[1] && mask[2] && mask[3] && mask[4] && !mask[5]);
    }

    #[test]
    fn cfg_feature_gates_follow_the_view() {
        let src = "#[cfg(all(feature = \"simd\", target_arch = \"x86_64\"))]\n\
                   pub mod simd;\n\
                   #[cfg(feature = \"simd\")]\n\
                   fn gated() {}\n\
                   fn always() {}\n";
        let off = parse_default(src);
        assert!(off.mods.iter().any(|m| m.name == "simd" && !m.enabled));
        assert!(off.masked_lines(5)[3], "gated fn masked");
        assert_eq!(off.cfg_refs.iter().filter(|r| r.feature == "simd").count(), 2);

        let on = parse(src, &CfgView::with_features(["simd"]));
        assert!(on.mods.iter().any(|m| m.name == "simd" && m.enabled));
        assert!(!on.masked_lines(5)[3]);
    }

    #[test]
    fn cfg_not_and_any_combinations() {
        let src = "#[cfg(not(test))]\nfn a() {}\n\
                   #[cfg(any(test, feature = \"x\"))]\nfn b() {}\n\
                   #[cfg(all(test, feature = \"y\"))]\nfn c() {}\n";
        let off = parse_default(src);
        let mask = off.masked_lines(6);
        assert!(!mask[1], "not(test) enabled");
        assert!(mask[3], "any(test, x) disabled without x");
        assert!(mask[5], "all(test, ...) always disabled");
        let on = parse(src, &CfgView::with_features(["x"]));
        assert!(!on.masked_lines(6)[3], "any(test, x) enabled with x");
    }

    #[test]
    fn cfg_macro_refs_collected() {
        let src = "fn f() -> bool { cfg!(feature = \"invariants\") }";
        let s = parse_default(src);
        assert_eq!(s.cfg_refs.len(), 1);
        assert_eq!(s.cfg_refs[0].feature, "invariants");
    }

    #[test]
    fn statement_level_cfg_masks_the_statement() {
        let src = "fn f(new: &mut [f64]) {\n\
                       #[cfg(feature = \"simd\")]\n\
                       if vector(new) {\n\
                           return;\n\
                       }\n\
                       scalar(new);\n\
                   }\n";
        let off = parse_default(src);
        let mask = off.masked_lines(7);
        assert!(mask[1] && mask[2] && mask[3] && mask[4]);
        assert!(!mask[5], "scalar fallback stays visible");
        let on = parse(src, &CfgView::with_features(["simd"]));
        assert!(!on.masked_lines(7)[2]);
    }

    #[test]
    fn trait_definition_bodies_flagged() {
        let src = "pub trait Scheduler {\n\
                       fn clone_box(&self) -> Box<dyn Scheduler>;\n\
                       fn tick(&mut self) { self.count += 1; }\n\
                   }\n";
        let s = parse_default(src);
        assert_eq!(s.impls.len(), 1);
        assert!(s.impls[0].is_trait_def);
        assert_eq!(s.impls[0].fns.len(), 2);
    }

    #[test]
    fn cfg_gated_use_statement_masks_one_line() {
        let src = "#[cfg(test)] use foo::bar;\nfn live() {}\n";
        let s = parse_default(src);
        let mask = s.masked_lines(2);
        assert!(mask[0] && !mask[1]);
    }
}
