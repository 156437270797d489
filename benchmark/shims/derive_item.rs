//! A `struct`/`enum` declaration reduced to what the stand-in derive macros
//! need: names, field lists and attributes. Shared by `serde_derive` and
//! `thiserror-impl` through `#[path]`, because a proc-macro crate can export
//! nothing but macros. Generic items are rejected: the tree derives on none.

use proc_macro::{Delimiter, TokenStream, TokenTree};

pub struct Attr {
    /// `error` in `#[error("…")]`, `serde` in `#[serde(default)]`.
    pub name: String,
    /// The tokens inside the parentheses; empty for `#[from]`.
    pub args: Vec<TokenTree>,
}

pub struct Field {
    /// `None` in a tuple struct or tuple variant.
    pub name: Option<String>,
    pub ty: String,
    pub attrs: Vec<Attr>,
}

pub enum Fields {
    Named(Vec<Field>),
    Tuple(Vec<Field>),
    Unit,
}

pub struct Variant {
    pub name: String,
    pub fields: Fields,
    pub attrs: Vec<Attr>,
}

pub enum Body {
    Struct(Fields),
    Enum(Vec<Variant>),
}

pub struct Item {
    pub name: String,
    pub attrs: Vec<Attr>,
    pub body: Body,
}

impl Attr {
    /// The attribute's arguments as `key` or `key = "value"` entries.
    pub fn entries(&self) -> Vec<(String, Option<String>)> {
        split_commas(&self.args)
            .into_iter()
            .filter(|e| !e.is_empty())
            .map(|e| {
                let key = e[0].to_string();
                let value = match e.get(2) {
                    Some(TokenTree::Literal(l)) => Some(unquote(&l.to_string())),
                    _ => None,
                };
                (key, value)
            })
            .collect()
    }
}

/// Strips the quotes of a plain string literal's source text.
pub fn unquote(lit: &str) -> String {
    lit.trim_matches('"').to_string()
}

pub fn find<'a>(attrs: &'a [Attr], name: &str) -> Option<&'a Attr> {
    attrs.iter().find(|a| a.name == name)
}

pub fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    let attrs = take_attrs(&tokens, &mut pos);
    skip_visibility(&tokens, &mut pos);
    let keyword = tokens[pos].to_string();
    let name = tokens[pos + 1].to_string();
    pos += 2;
    if matches!(&tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("stand-in derive: generic type `{name}` is not supported");
    }
    let body = match (keyword.as_str(), tokens.get(pos)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Struct(Fields::Named(parse_fields(g.stream(), true)))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Struct(Fields::Tuple(parse_fields(g.stream(), false)))
        }
        ("struct", _) => Body::Struct(Fields::Unit),
        ("enum", Some(TokenTree::Group(g))) => Body::Enum(parse_variants(g.stream())),
        _ => panic!("stand-in derive: expected a struct or an enum, found `{keyword}`"),
    };
    Item { name, attrs, body }
}

fn take_attrs(tokens: &[TokenTree], pos: &mut usize) -> Vec<Attr> {
    let mut attrs = Vec::new();
    while let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g))) =
        (tokens.get(*pos), tokens.get(*pos + 1))
    {
        if p.as_char() != '#' {
            break;
        }
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        let args = match inner.get(1) {
            Some(TokenTree::Group(a)) => a.stream().into_iter().collect(),
            _ => Vec::new(),
        };
        attrs.push(Attr {
            name: inner[0].to_string(),
            args,
        });
        *pos += 2;
    }
    attrs
}

fn skip_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if matches!(tokens.get(*pos), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        *pos += 1;
        if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *pos += 1;
        }
    }
}

/// Splits at commas that are outside every `<…>`; brackets and parentheses
/// already arrive as single groups.
fn split_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut angle = 0i32;
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    parts.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        parts.last_mut().expect("never empty").push(t.clone());
    }
    if parts.last().is_some_and(Vec::is_empty) {
        parts.pop();
    }
    parts
}

fn parse_fields(stream: TokenStream, named: bool) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    split_commas(&tokens)
        .into_iter()
        .map(|part| {
            let mut pos = 0;
            let attrs = take_attrs(&part, &mut pos);
            skip_visibility(&part, &mut pos);
            let name = named.then(|| {
                let n = part[pos].to_string();
                pos += 2; // the name and its colon
                n
            });
            let ty = part[pos..]
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ");
            Field { name, ty, attrs }
        })
        .collect()
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    split_commas(&tokens)
        .into_iter()
        .map(|part| {
            let mut pos = 0;
            let attrs = take_attrs(&part, &mut pos);
            let name = part[pos].to_string();
            // Anything after the field group is an explicit discriminant.
            let fields = match part.get(pos + 1) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_fields(g.stream(), true))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(parse_fields(g.stream(), false))
                }
                _ => Fields::Unit,
            };
            Variant {
                name,
                fields,
                attrs,
            }
        })
        .collect()
}
