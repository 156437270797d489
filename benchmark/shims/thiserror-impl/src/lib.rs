//! `#[derive(Error)]` for the `thiserror` stand-in: `Display` from
//! `#[error("…")]` with `{0}` / `{name}` / `{name:?}` interpolation,
//! `std::error::Error`, and `From` plus `source()` for `#[from]` fields.

use proc_macro::TokenStream;

#[path = "../../derive_item.rs"]
// Each derive crate uses its own part of the shared parser.
#[allow(dead_code)]
mod item;
use item::{find, Attr, Body, Fields, Item, Variant};

/// Derives `Display`, `Error` and `From` as the published crate does, for the
/// attribute forms listed in the crate documentation.
#[proc_macro_derive(Error, attributes(error, from, source))]
pub fn derive_error(input: TokenStream) -> TokenStream {
    let Item { name, attrs, body } = item::parse_item(input);
    let mut display_arms = String::new();
    let mut source_arms = String::new();
    let mut from_impls = String::new();
    match &body {
        Body::Struct(fields) => {
            let pat = pattern(&name, fields);
            display_arms += &format!("{pat} => {},", write_call(&name, &attrs));
            from_parts(&name, &name, fields, &mut source_arms, &mut from_impls);
        }
        Body::Enum(variants) => {
            for Variant {
                name: v,
                fields,
                attrs,
            } in variants
            {
                let path = format!("{name}::{v}");
                display_arms += &format!(
                    "{} => {},",
                    pattern(&path, fields),
                    write_call(&path, attrs)
                );
                from_parts(&name, &path, fields, &mut source_arms, &mut from_impls);
            }
        }
    }
    format!(
        "impl ::std::fmt::Display for {name} {{
            #[allow(unused_variables)]
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {{
                match self {{ {display_arms} }}
            }}
        }}
        impl ::std::error::Error for {name} {{
            fn source(&self) -> ::std::option::Option<&(dyn ::std::error::Error + 'static)> {{
                #[allow(unreachable_patterns)]
                match self {{ {source_arms} _ => ::std::option::Option::None }}
            }}
        }}
        {from_impls}"
    )
    .parse()
    .expect("generated impls are valid Rust")
}

/// Binds tuple fields as `_0, _1, …` and named fields by name.
fn pattern(path: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => path.to_string(),
        Fields::Tuple(fs) => {
            let binds: Vec<String> = (0..fs.len()).map(|i| format!("_{i}")).collect();
            format!("{path}({})", binds.join(","))
        }
        Fields::Named(fs) => {
            let binds: Vec<&str> = fs.iter().filter_map(|f| f.name.as_deref()).collect();
            format!("{path} {{ {} }}", binds.join(","))
        }
    }
}

fn write_call(path: &str, attrs: &[Attr]) -> String {
    let attr = find(attrs, "error")
        .unwrap_or_else(|| panic!("stand-in thiserror: `{path}` has no #[error(\"…\")]"));
    let lit = attr
        .args
        .first()
        .map(ToString::to_string)
        .unwrap_or_default();
    if !lit.starts_with('"') || attr.args.len() != 1 {
        panic!("stand-in thiserror: `{path}`: only #[error(\"format string\")] is supported");
    }
    format!("::std::write!(f, {})", positional_to_named(&lit))
}

/// Rewrites `{0}` / `{0:?}` to `{_0}` / `{_0:?}` so the format string captures
/// the bindings [`pattern`] introduces. `{{` stays an escaped brace.
fn positional_to_named(lit: &str) -> String {
    let mut out = String::with_capacity(lit.len() + 4);
    let mut chars = lit.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c != '{' {
            continue;
        }
        match chars.peek() {
            Some('{') => out.push(chars.next().expect("peeked")),
            Some(d) if d.is_ascii_digit() => out.push('_'),
            _ => {}
        }
    }
    out
}

fn from_parts(
    ty: &str,
    path: &str,
    fields: &Fields,
    source_arms: &mut String,
    from_impls: &mut String,
) {
    let (Fields::Tuple(fs) | Fields::Named(fs)) = fields else {
        return;
    };
    let Some(field) = fs.iter().find(|f| find(&f.attrs, "from").is_some()) else {
        return;
    };
    if fs.len() != 1 {
        panic!("stand-in thiserror: `{path}`: #[from] needs a single-field variant");
    }
    let src = &field.ty;
    let (bind, build) = match &field.name {
        None => (format!("{path}(source)"), format!("{path}(source)")),
        Some(n) => (
            format!("{path} {{ {n}: source }}"),
            format!("{path} {{ {n}: source }}"),
        ),
    };
    *source_arms += &format!("{bind} => ::std::option::Option::Some(source),");
    *from_impls += &format!(
        "impl ::std::convert::From<{src}> for {ty} {{
            fn from(source: {src}) -> Self {{ {build} }}
        }}"
    );
}
