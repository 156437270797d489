//! `#[derive(Serialize, Deserialize)]` for the `serde` stand-in. Generates
//! `serde_json`'s default representation (see `serde::json`) and honours the
//! three field attributes the tree uses: `#[serde(default)]`,
//! `#[serde(default = "path")]` and `#[serde(skip)]`.

use proc_macro::TokenStream;

#[path = "../../derive_item.rs"]
// Each derive crate uses its own part of the shared parser.
#[allow(dead_code)]
mod item;
use item::{Body, Field, Fields, Item};

enum Missing {
    /// Ask the field's type (`Deserialize::missing_field`).
    AskType,
    Default,
    Call(String),
}

struct FieldPlan<'a> {
    field: &'a Field,
    skip: bool,
    missing: Missing,
}

fn plan(field: &Field) -> FieldPlan<'_> {
    let mut plan = FieldPlan {
        field,
        skip: false,
        missing: Missing::AskType,
    };
    for attr in field.attrs.iter().filter(|a| a.name == "serde") {
        for (key, value) in attr.entries() {
            match (key.as_str(), value) {
                ("skip", None) => plan.skip = true,
                ("default", None) => plan.missing = Missing::Default,
                ("default", Some(path)) => plan.missing = Missing::Call(path),
                (other, _) => panic!("stand-in serde: #[serde({other})] is not supported"),
            }
        }
    }
    plan
}

fn byte_lit(text: &str) -> String {
    format!("b\"{}\"", text.replace('\\', "\\\\").replace('"', "\\\""))
}

fn push_text(text: &str) -> String {
    format!("out.extend_from_slice({});", byte_lit(text))
}

const SER: &str = "::serde::Serialize::serialize";
const DE: &str = "::serde::Deserialize::deserialize(p)?";

/// Statements that write `fields`, each bound to a variable of its own name
/// (`_0`, `_1`, … in a tuple), as an object, an array or a bare value.
fn ser_fields(fields: &Fields) -> String {
    match fields {
        Fields::Unit => push_text("null"),
        Fields::Tuple(fs) if fs.len() == 1 => format!("{SER}(_0, out);"),
        Fields::Tuple(fs) => {
            let mut code = push_text("[");
            for i in 0..fs.len() {
                if i > 0 {
                    code += &push_text(",");
                }
                code += &format!("{SER}(_{i}, out);");
            }
            code + &push_text("]")
        }
        Fields::Named(fs) => {
            let mut code = String::new();
            let mut open = "{".to_string();
            for p in fs.iter().map(plan).filter(|p| !p.skip) {
                let name = p.field.name.as_deref().expect("named field");
                code += &push_text(&format!("{open}\"{name}\":"));
                code += &format!("{SER}({name}, out);");
                open = ",".to_string();
            }
            if open == "{" {
                code += &push_text("{");
            }
            code + &push_text("}")
        }
    }
}

/// A pattern that binds every field of `path` for [`ser_fields`].
fn bind_pattern(path: &str, fields: &Fields) -> String {
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

/// Derives the `serde` stand-in's `Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let Item { name, body, .. } = item::parse_item(input);
    let arms = match &body {
        Body::Struct(fields) => {
            format!(
                "{} => {{ {} }}",
                bind_pattern(&name, fields),
                ser_fields(fields)
            )
        }
        Body::Enum(variants) => variants
            .iter()
            .map(|v| {
                let pat = bind_pattern(&format!("{name}::{}", v.name), &v.fields);
                let body = match &v.fields {
                    Fields::Unit => push_text(&format!("\"{}\"", v.name)),
                    fields => {
                        push_text(&format!("{{\"{}\":", v.name))
                            + &ser_fields(fields)
                            + &push_text("}")
                    }
                };
                format!("{pat} => {{ {body} }}")
            })
            .collect(),
    };
    format!(
        "impl ::serde::Serialize for {name} {{
            #[allow(unused_variables)]
            fn serialize(&self, out: &mut ::std::vec::Vec<u8>) {{
                match self {{ {arms} }}
            }}
        }}"
    )
    .parse()
    .expect("generated impl is valid Rust")
}

/// An expression that reads `fields` and builds `path` from them.
fn de_fields(path: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => format!("{{ p.parse_null()?; {path} }}"),
        Fields::Tuple(fs) if fs.len() == 1 => format!("{path}({DE})"),
        Fields::Tuple(fs) => {
            let short = format!(
                "return ::std::result::Result::Err(::serde::json::Error::new(\"expected {} elements for {path}\"))",
                fs.len()
            );
            let elems: String = (0..fs.len())
                .map(|i| {
                    format!(
                        "if p.next_element({})? {{ {DE} }} else {{ {short} }},",
                        i == 0
                    )
                })
                .collect();
            format!(
                "{{ p.begin_array()?;
                    let value = {path}({elems});
                    if p.next_element(false)? {{ {short} }}
                    value }}"
            )
        }
        Fields::Named(fs) => {
            let plans: Vec<FieldPlan> = fs.iter().map(plan).collect();
            let mut slots = String::new();
            let mut arms = String::new();
            let mut build = String::new();
            for p in &plans {
                let name = p.field.name.as_deref().expect("named field");
                if p.skip {
                    build += &format!("{name}: ::std::default::Default::default(),");
                    continue;
                }
                slots += &format!("let mut slot_{name} = ::std::option::Option::None;");
                arms += &format!("\"{name}\" => slot_{name} = ::std::option::Option::Some({DE}),");
                let missing = match &p.missing {
                    Missing::AskType => format!("::serde::Deserialize::missing_field(\"{name}\")?"),
                    Missing::Default => "::std::default::Default::default()".to_string(),
                    Missing::Call(f) => format!("{f}()"),
                };
                build += &format!(
                    "{name}: match slot_{name} {{
                        ::std::option::Option::Some(v) => v,
                        ::std::option::Option::None => {missing},
                    }},"
                );
            }
            format!(
                "{{ {slots}
                    p.begin_object()?;
                    let mut first = true;
                    while let ::std::option::Option::Some(key) = p.next_key(first)? {{
                        first = false;
                        match key.as_str() {{ {arms} _ => p.skip_value()?, }}
                    }}
                    {path} {{ {build} }} }}"
            )
        }
    }
}

/// Derives the `serde` stand-in's `Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let Item { name, body, .. } = item::parse_item(input);
    let read = match &body {
        Body::Struct(fields) => de_fields(&name, fields),
        Body::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let path = format!("{name}::{}", v.name);
                    let value = match &v.fields {
                        // `"Unit"` and `{"Unit":null}` both read as the unit variant.
                        Fields::Unit => {
                            format!("{{ if has_content {{ p.parse_null()?; }} {path} }}")
                        }
                        fields => format!(
                            "{{ if !has_content {{
                                    return ::std::result::Result::Err(::serde::json::Error::new(
                                        \"variant {path} needs content\"));
                                }}
                                {} }}",
                            de_fields(&path, fields)
                        ),
                    };
                    format!("\"{}\" => {value},", v.name)
                })
                .collect();
            format!(
                "{{ let (variant, has_content) = p.begin_enum()?;
                    let value = match variant.as_str() {{
                        {arms}
                        other => return ::std::result::Result::Err(::serde::json::Error::new(
                            ::std::format!(\"unknown variant `{{other}}` of {name}\"))),
                    }};
                    if has_content {{ p.end_enum()?; }}
                    value }}"
            )
        }
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{
            fn deserialize(p: &mut ::serde::json::Parser<'de>)
                -> ::std::result::Result<Self, ::serde::json::Error>
            {{
                ::std::result::Result::Ok({read})
            }}
        }}"
    )
    .parse()
    .expect("generated impl is valid Rust")
}
