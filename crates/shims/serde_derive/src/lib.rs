//! Offline stand-in for `serde_derive` (see `crates/shims/README.md`).
//!
//! Hand-rolled over `proc_macro` (no `syn`/`quote`): parses the token
//! stream of a non-generic `struct` with named fields or an `enum` whose
//! variants are unit / named-field / tuple shaped, and emits impls of the
//! serde shim's `Serialize` / `Deserialize` traits using the same
//! externally-tagged enum representation as real serde. `Serialize` gets
//! both `to_value` and a `write_json` that appends the same JSON text
//! directly, field names and variant tags baked in as literals.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    Struct(Vec<String>),
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    kind: VariantKind,
}

#[derive(Debug)]
enum VariantKind {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

/// Derives the serde shim's `Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_item(input);
    let to_value = match &shape {
        Shape::Struct(fields) => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Map(::std::vec![{}])", pairs.join(", "))
        }
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants.iter().map(|v| ser_arm(&name, v)).collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    let write_json = match &shape {
        Shape::Struct(fields) => json_object(fields, |f| format!("&self.{f}")),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants.iter().map(|v| json_arm(&name, v)).collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {to_value} }}\n\
             fn write_json(&self, out: &mut ::std::string::String) {{ {write_json} }}\n\
         }}"
    )
    .parse()
    .expect("generated Serialize impl must parse")
}

/// Derives the serde shim's `Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_item(input);
    let body = match &shape {
        Shape::Struct(fields) => format!(
            "let m = ::serde::struct_map(v, \"{name}\")?;\n\
             ::std::result::Result::Ok({name} {{ {} }})",
            fields
                .iter()
                .map(|f| de_field(&name, f, "m"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants.iter().map(|v| de_arm(&name, v)).collect();
            format!(
                "let (tag, inner) = ::serde::enum_tag(v, \"{name}\")?;\n\
                 let _ = &inner;\n\
                 match tag {{ {} _ => ::std::result::Result::Err(\
                     ::serde::DeError::unknown_variant(\"{name}\", tag)) }}",
                arms.join(" ")
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> \
                 ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("generated Deserialize impl must parse")
}

/// One `match self` arm of a Serialize impl.
fn ser_arm(name: &str, v: &Variant) -> String {
    let tag = &v.name;
    match &v.kind {
        VariantKind::Unit => {
            format!("{name}::{tag} => ::serde::Value::Str(::std::string::String::from(\"{tag}\")),")
        }
        VariantKind::Named(fields) => {
            let binds = fields.join(", ");
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value({f}))"
                    )
                })
                .collect();
            format!(
                "{name}::{tag} {{ {binds} }} => ::serde::Value::Map(::std::vec![\
                     (::std::string::String::from(\"{tag}\"), \
                      ::serde::Value::Map(::std::vec![{}]))]),",
                pairs.join(", ")
            )
        }
        VariantKind::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
            let payload = if *n == 1 {
                "::serde::Serialize::to_value(x0)".to_string()
            } else {
                format!(
                    "::serde::Value::Seq(::std::vec![{}])",
                    binds
                        .iter()
                        .map(|b| format!("::serde::Serialize::to_value({b})"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            format!(
                "{name}::{tag}({}) => ::serde::Value::Map(::std::vec![\
                     (::std::string::String::from(\"{tag}\"), {payload})]),",
                binds.join(", ")
            )
        }
    }
}

/// Statements appending `{"f":<expr f>,...}` to `out`. Field names are
/// Rust identifiers, so they need no escaping.
fn json_object(fields: &[String], expr: impl Fn(&str) -> String) -> String {
    let mut code = String::new();
    for (i, f) in fields.iter().enumerate() {
        let open = if i == 0 { "{" } else { "," };
        code += &format!(
            "out.push_str(\"{open}\\\"{f}\\\":\"); \
             ::serde::Serialize::write_json({}, out); ",
            expr(f)
        );
    }
    code += if fields.is_empty() {
        "out.push_str(\"{}\");"
    } else {
        "out.push('}');"
    };
    code
}

/// One `match self` arm of a Serialize impl's `write_json`: the same
/// externally tagged shapes as [`ser_arm`].
fn json_arm(name: &str, v: &Variant) -> String {
    let tag = &v.name;
    match &v.kind {
        VariantKind::Unit => format!("{name}::{tag} => out.push_str(\"\\\"{tag}\\\"\"),"),
        VariantKind::Named(fields) => format!(
            "{name}::{tag} {{ {} }} => {{ out.push_str(\"{{\\\"{tag}\\\":\"); {} out.push('}}'); }}",
            fields.join(", "),
            json_object(fields, str::to_string)
        ),
        VariantKind::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
            let payload = if *n == 1 {
                "::serde::Serialize::write_json(x0, out);".to_string()
            } else {
                let items: Vec<String> = binds
                    .iter()
                    .map(|b| format!("::serde::Serialize::write_json({b}, out);"))
                    .collect();
                format!(
                    "out.push('['); {} out.push(']');",
                    items.join(" out.push(','); ")
                )
            };
            format!(
                "{name}::{tag}({}) => {{ out.push_str(\"{{\\\"{tag}\\\":\"); {payload} out.push('}}'); }}",
                binds.join(", ")
            )
        }
    }
}

/// One `match tag` arm of a Deserialize impl.
fn de_arm(name: &str, v: &Variant) -> String {
    let tag = &v.name;
    match &v.kind {
        VariantKind::Unit => {
            format!("\"{tag}\" => ::std::result::Result::Ok({name}::{tag}),")
        }
        VariantKind::Named(fields) => format!(
            "\"{tag}\" => {{\n\
                 let fm = ::serde::struct_map(inner, \"{name}::{tag}\")?;\n\
                 ::std::result::Result::Ok({name}::{tag} {{ {} }})\n\
             }},",
            fields
                .iter()
                .map(|f| de_field(&format!("{name}::{tag}"), f, "fm"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        VariantKind::Tuple(n) if *n == 1 => format!(
            "\"{tag}\" => ::std::result::Result::Ok({name}::{tag}(\
                 ::serde::Deserialize::from_value(inner)\
                     .map_err(|e| e.at(\"{name}::{tag}\"))?)),"
        ),
        VariantKind::Tuple(n) => format!(
            "\"{tag}\" => {{\n\
                 let s = ::serde::seq(inner, \"{name}::{tag}\")?;\n\
                 if s.len() != {n} {{\n\
                     return ::std::result::Result::Err(::serde::DeError::custom(\
                         format!(\"{name}::{tag}: expected {n} elements, got {{}}\", s.len())));\n\
                 }}\n\
                 ::std::result::Result::Ok({name}::{tag}({}))\n\
             }},",
            (0..*n)
                .map(|i| format!(
                    "::serde::Deserialize::from_value(&s[{i}])\
                         .map_err(|e| e.at(\"{name}::{tag}\"))?"
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

/// `field: Deserialize::from_value(field(map, "field"))?` with context.
fn de_field(ctx: &str, f: &str, map_var: &str) -> String {
    format!(
        "{f}: ::serde::Deserialize::from_value(::serde::field({map_var}, \"{f}\"))\
             .map_err(|e| e.at(\"{ctx}.{f}\"))?"
    )
}

// --- token-stream parsing ---------------------------------------------------

fn parse_item(input: TokenStream) -> (String, Shape) {
    let mut toks = input.into_iter().peekable();
    skip_attrs_and_vis(&mut toks);
    let kw = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde_derive shim: expected `struct` or `enum`, got {other:?}"),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde_derive shim: expected item name, got {other:?}"),
    };
    let group = loop {
        match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g,
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                panic!("serde_derive shim: generic types are not supported ({name})")
            }
            Some(_) => continue,
            None => panic!("serde_derive shim: no braced body on {name}"),
        }
    };
    let shape = match kw.as_str() {
        "struct" => Shape::Struct(parse_named_fields(group.stream())),
        "enum" => Shape::Enum(parse_variants(group.stream())),
        other => panic!("serde_derive shim: cannot derive for `{other}` items"),
    };
    (name, shape)
}

type Peekable = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Skips `#[...]` attributes (including doc comments) and `pub` /
/// `pub(...)` visibility qualifiers.
fn skip_attrs_and_vis(toks: &mut Peekable) {
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                toks.next(); // the [...] group
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                toks.next();
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next();
                    }
                }
            }
            _ => return,
        }
    }
}

/// Parses `name: Type, ...` field lists, returning the field names. Types
/// are skipped with angle-bracket depth tracking so commas inside generic
/// argument lists (e.g. `BTreeMap<K, V>`) don't split fields.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let mut toks = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attrs_and_vis(&mut toks);
        let name = match toks.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("serde_derive shim: expected field name, got {other:?}"),
        };
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive shim: expected `:` after `{name}`, got {other:?}"),
        }
        fields.push(name);
        // Skip the type up to a comma at angle depth 0.
        let mut depth = 0i32;
        for t in toks.by_ref() {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
        }
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut toks = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attrs_and_vis(&mut toks);
        let name = match toks.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("serde_derive shim: expected variant name, got {other:?}"),
        };
        let kind = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let g = match toks.next() {
                    Some(TokenTree::Group(g)) => g,
                    _ => unreachable!(),
                };
                VariantKind::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let g = match toks.next() {
                    Some(TokenTree::Group(g)) => g,
                    _ => unreachable!(),
                };
                VariantKind::Tuple(count_tuple_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        variants.push(Variant { name, kind });
        // Skip to the next comma (covers discriminants, trailing commas).
        for t in toks.by_ref() {
            if let TokenTree::Punct(p) = t {
                if p.as_char() == ',' {
                    break;
                }
            }
        }
    }
    variants
}

/// Counts tuple-variant fields: top-level (angle-depth 0) commas + 1,
/// ignoring a trailing comma.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut commas = 0usize;
    let mut any = false;
    let mut trailing_comma = false;
    for t in stream {
        any = true;
        trailing_comma = false;
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                commas += 1;
                trailing_comma = true;
            }
            _ => {}
        }
    }
    if !any {
        return 0;
    }
    commas + 1 - usize::from(trailing_comma)
}
