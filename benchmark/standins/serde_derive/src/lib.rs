//! Stand-in for `serde_derive`, written against `proc_macro` alone (no
//! `syn`, no `quote`): it reads the item's tokens by hand and emits the
//! impl as source text.
//!
//! Supported, because the workspace uses them: structs with named fields,
//! newtype and unit structs, enums with unit / newtype / struct variants
//! (externally tagged, or internally with `tag = ".."`), and the attributes
//! `default`, `skip_serializing`, `skip_serializing_if`,
//! `rename_all = "snake_case"`. Generic items, tuples of several fields and
//! any other `#[serde(..)]` attribute are compile errors, not silent
//! differences.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write as _;
use std::iter::Peekable;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Item::serialize_impl)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Item::deserialize_impl)
}

fn expand(input: TokenStream, generate: fn(&Item) -> String) -> TokenStream {
    let source = match parse_item(input) {
        Ok(item) => generate(&item),
        Err(message) => format!("::std::compile_error!({message:?});"),
    };
    source.parse().expect("generated impl is valid Rust")
}

#[derive(Default)]
struct Attrs {
    default: bool,
    skip_serializing: bool,
    skip_serializing_if: Option<String>,
    rename_all: Option<String>,
    tag: Option<String>,
}

struct Field {
    /// The identifier in Rust source.
    ident: String,
    /// The member name in JSON.
    key: String,
    attrs: Attrs,
}

enum Shape {
    Unit,
    /// One unnamed field.
    Newtype,
    Named(Vec<Field>),
}

struct Variant {
    ident: String,
    key: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    tag: Option<String>,
    body: Body,
}

type Tokens = Peekable<proc_macro::token_stream::IntoIter>;

fn is_punct(tree: Option<&TokenTree>, ch: char) -> bool {
    matches!(tree, Some(TokenTree::Punct(p)) if p.as_char() == ch)
}

/// Consumes the attributes at the cursor, keeping what `#[serde(..)]` says.
fn parse_attrs(tokens: &mut Tokens) -> Result<Attrs, String> {
    let mut attrs = Attrs::default();
    while is_punct(tokens.peek(), '#') {
        tokens.next();
        let Some(TokenTree::Group(group)) = tokens.next() else {
            return Err("expected `[..]` after `#`".into());
        };
        let mut inner = group.stream().into_iter();
        if !matches!(inner.next(), Some(TokenTree::Ident(i)) if i.to_string() == "serde") {
            continue;
        }
        let Some(TokenTree::Group(args)) = inner.next() else {
            return Err("expected `#[serde(..)]`".into());
        };
        let mut args = args.stream().into_iter().peekable();
        while let Some(tree) = args.next() {
            let TokenTree::Ident(name) = tree else {
                return Err(format!("unexpected `{tree}` in #[serde(..)]"));
            };
            let value = if is_punct(args.peek(), '=') {
                args.next();
                match args.next() {
                    Some(TokenTree::Literal(lit)) => {
                        Some(lit.to_string().trim_matches('"').to_owned())
                    }
                    other => return Err(format!("expected a string after `{name} =`: {other:?}")),
                }
            } else {
                None
            };
            match (name.to_string().as_str(), value) {
                ("default", None) => attrs.default = true,
                ("skip_serializing", None) => attrs.skip_serializing = true,
                ("skip_serializing_if", Some(path)) => attrs.skip_serializing_if = Some(path),
                ("rename_all", Some(rule)) if rule == "snake_case" => attrs.rename_all = Some(rule),
                ("tag", Some(tag)) => attrs.tag = Some(tag),
                (other, _) => {
                    return Err(format!("the serde stand-in does not support `{other}` here"))
                }
            }
            if is_punct(args.peek(), ',') {
                args.next();
            }
        }
    }
    Ok(attrs)
}

fn skip_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// Consumes one type (or discriminant expression) up to a comma outside
/// any `<..>`, and the comma. Brackets and parentheses arrive as single
/// token trees, so only angle brackets need counting.
fn skip_to_comma(tokens: &mut Tokens) {
    let mut angle = 0i32;
    for tree in tokens.by_ref() {
        if let TokenTree::Punct(p) = &tree {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => return,
                _ => {}
            }
        }
    }
}

fn snake_case(ident: &str) -> String {
    let mut out = String::new();
    for (i, c) in ident.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}

fn json_name(ident: &str, container: &Attrs) -> String {
    match container.rename_all {
        Some(_) => snake_case(ident),
        None => ident.to_owned(),
    }
}

fn parse_named(stream: TokenStream, container: &Attrs) -> Result<Vec<Field>, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    while tokens.peek().is_some() {
        let attrs = parse_attrs(&mut tokens)?;
        skip_visibility(&mut tokens);
        let Some(TokenTree::Ident(ident)) = tokens.next() else {
            return Err("expected a field name".into());
        };
        if !is_punct(tokens.next().as_ref(), ':') {
            return Err(format!("expected `:` after field `{ident}`"));
        }
        skip_to_comma(&mut tokens);
        let ident = ident.to_string();
        let key = json_name(ident.trim_start_matches("r#"), container);
        fields.push(Field { ident, key, attrs });
    }
    Ok(fields)
}

/// Checks that a parenthesized field list holds exactly one plain field.
fn expect_newtype(stream: TokenStream) -> Result<Shape, String> {
    let mut tokens = stream.into_iter().peekable();
    let attrs = parse_attrs(&mut tokens)?;
    if attrs.default || attrs.skip_serializing || attrs.skip_serializing_if.is_some() {
        return Err("the serde stand-in does not support attributes on unnamed fields".into());
    }
    skip_visibility(&mut tokens);
    skip_to_comma(&mut tokens);
    match tokens.peek() {
        None => Ok(Shape::Newtype),
        Some(_) => Err("the serde stand-in supports one unnamed field, not several".into()),
    }
}

fn parse_variants(stream: TokenStream, container: &Attrs) -> Result<Vec<Variant>, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    while tokens.peek().is_some() {
        parse_attrs(&mut tokens)?;
        let Some(TokenTree::Ident(ident)) = tokens.next() else {
            return Err("expected a variant name".into());
        };
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                expect_newtype(g.stream())?
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                // `rename_all` on an enum renames its variants, not their fields.
                Shape::Named(parse_named(g.stream(), &Attrs::default())?)
            }
            _ => Shape::Unit,
        };
        if !matches!(shape, Shape::Unit) {
            tokens.next();
        }
        skip_to_comma(&mut tokens);
        let ident = ident.to_string();
        let key = json_name(&ident, container);
        variants.push(Variant { ident, key, shape });
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut tokens = input.into_iter().peekable();
    let container = parse_attrs(&mut tokens)?;
    if container.default {
        return Err("the serde stand-in does not support `default` on a container".into());
    }
    skip_visibility(&mut tokens);
    let Some(TokenTree::Ident(keyword)) = tokens.next() else {
        return Err("expected `struct` or `enum`".into());
    };
    let Some(TokenTree::Ident(name)) = tokens.next() else {
        return Err("expected the item's name".into());
    };
    if is_punct(tokens.peek(), '<') {
        return Err(format!("the serde stand-in does not support generic item `{name}`"));
    }
    let body = match (keyword.to_string().as_str(), tokens.next()) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Struct(Shape::Named(parse_named(g.stream(), &container)?))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Struct(expect_newtype(g.stream())?)
        }
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => Body::Struct(Shape::Unit),
        ("enum", Some(TokenTree::Group(g))) => Body::Enum(parse_variants(g.stream(), &container)?),
        (other, _) => return Err(format!("cannot derive for this `{other}` item")),
    };
    if container.tag.is_some() && !matches!(body, Body::Enum(_)) {
        return Err("`tag` is only supported on enums".into());
    }
    Ok(Item { name: name.to_string(), tag: container.tag, body })
}

/// Statements that write the members of `fields`; `access` gives the
/// expression (a reference) for a field. Expects `out` and `first`.
fn write_members(fields: &[Field], access: impl Fn(&Field) -> String) -> String {
    let mut code = String::new();
    for field in fields.iter().filter(|f| !f.attrs.skip_serializing) {
        let value = access(field);
        let write = format!(
            "::serde::json::write_key(out, &mut first, {key:?}); \
             ::serde::Serialize::serialize_json({value}, out);",
            key = field.key
        );
        match &field.attrs.skip_serializing_if {
            Some(skip) => write!(code, "if !{skip}({value}) {{ {write} }}").unwrap(),
            None => code.push_str(&write),
        }
    }
    code
}

/// An expression that reads an object at the cursor into `ctor {..}`.
/// Unknown keys are skipped, which is also how an internally tagged
/// variant steps over its tag.
fn read_members(fields: &[Field], ctor: &str) -> String {
    let mut code = String::from("{");
    for i in 0..fields.len() {
        write!(code, "let mut __f{i} = ::std::option::Option::None;").unwrap();
    }
    code.push_str(
        "let mut __seq = p.begin_object()?; \
         while let ::std::option::Option::Some(__key) = p.next_key(&mut __seq)? { match &*__key {",
    );
    for (i, field) in fields.iter().enumerate() {
        write!(
            code,
            "{key:?} => __f{i} = ::std::option::Option::Some(\
             ::serde::Deserialize::deserialize_json(p)?),",
            key = field.key
        )
        .unwrap();
    }
    write!(code, "_ => p.skip_value()?, }} }} {ctor} {{").unwrap();
    for (i, field) in fields.iter().enumerate() {
        let missing = if field.attrs.default {
            "::std::default::Default::default()".to_owned()
        } else {
            format!(
                "match ::serde::Deserialize::absent() {{ \
                 ::std::option::Option::Some(v) => v, \
                 ::std::option::Option::None => return ::std::result::Result::Err(\
                 ::serde::json::Error::missing_field({key:?})), }}",
                key = field.key
            )
        };
        write!(
            code,
            "{ident}: match __f{i} {{ ::std::option::Option::Some(v) => v, \
             ::std::option::Option::None => {missing}, }},",
            ident = field.ident
        )
        .unwrap();
    }
    code.push_str("} }");
    code
}

impl Item {
    fn serialize_impl(&self) -> String {
        let name = &self.name;
        let body = match &self.body {
            Body::Struct(Shape::Unit) => "out.extend_from_slice(b\"null\");".to_owned(),
            Body::Struct(Shape::Newtype) => {
                "::serde::Serialize::serialize_json(&self.0, out);".to_owned()
            }
            Body::Struct(Shape::Named(fields)) => format!(
                "out.push(b'{{'); let mut first = true; {} let _ = first; out.push(b'}}');",
                write_members(fields, |f| format!("&self.{}", f.ident))
            ),
            Body::Enum(variants) => {
                let arms: String = variants
                    .iter()
                    .map(|v| match &self.tag {
                        Some(tag) => self.tagged_variant_writer(v, tag),
                        None => self.variant_writer(v),
                    })
                    .collect();
                format!("match self {{ {arms} }}")
            }
        };
        format!(
            "impl ::serde::Serialize for {name} {{ #[allow(unused_variables)] \
             fn serialize_json(&self, out: &mut ::std::vec::Vec<u8>) {{ {body} }} }}"
        )
    }

    /// `"Key"` for a unit variant, else `{"Key":content}`.
    fn variant_writer(&self, v: &Variant) -> String {
        let (name, ident, key) = (&self.name, &v.ident, &v.key);
        let open = format!("out.extend_from_slice(b\"{{\\\"{key}\\\":\");");
        match &v.shape {
            Shape::Unit => format!("{name}::{ident} => ::serde::json::write_str(out, {key:?}),"),
            Shape::Newtype => format!(
                "{name}::{ident}(__0) => {{ {open} \
                 ::serde::Serialize::serialize_json(__0, out); out.push(b'}}'); }}"
            ),
            Shape::Named(fields) => format!(
                "{name}::{ident} {{ {} }} => {{ {open} out.push(b'{{'); let mut first = true; \
                 {} let _ = first; out.extend_from_slice(b\"}}}}\"); }}",
                fields.iter().map(|f| format!("{},", f.ident)).collect::<String>(),
                write_members(fields, |f| f.ident.clone())
            ),
        }
    }

    /// `{"tag":"key", members..}`.
    fn tagged_variant_writer(&self, v: &Variant, tag: &str) -> String {
        let (name, ident, key) = (&self.name, &v.ident, &v.key);
        let open = format!("out.extend_from_slice(b\"{{\\\"{tag}\\\":\\\"{key}\\\"\");");
        match &v.shape {
            Shape::Unit => format!("{name}::{ident} => {{ {open} out.push(b'}}'); }}"),
            Shape::Newtype => format!(
                "{name}::{ident}(__0) => {{ {open} let __start = out.len(); \
                 ::serde::Serialize::serialize_json(__0, out); \
                 ::serde::json::splice_object(out, __start); }}"
            ),
            Shape::Named(fields) => format!(
                "{name}::{ident} {{ {} }} => {{ {open} let mut first = false; \
                 {} let _ = first; out.push(b'}}'); }}",
                fields.iter().map(|f| format!("{},", f.ident)).collect::<String>(),
                write_members(fields, |f| f.ident.clone())
            ),
        }
    }

    fn deserialize_impl(&self) -> String {
        let name = &self.name;
        let ok = "::std::result::Result::Ok";
        let body = match &self.body {
            Body::Struct(Shape::Unit) => {
                format!("<() as ::serde::Deserialize>::deserialize_json(p)?; {ok}({name})")
            }
            Body::Struct(Shape::Newtype) => {
                format!("{ok}({name}(::serde::Deserialize::deserialize_json(p)?))")
            }
            Body::Struct(Shape::Named(fields)) => format!("{ok}({})", read_members(fields, name)),
            Body::Enum(variants) => match &self.tag {
                Some(tag) => self.tagged_enum_reader(variants, tag),
                None => self.enum_reader(variants),
            },
        };
        format!(
            "impl ::serde::Deserialize for {name} {{ \
             fn deserialize_json(p: &mut ::serde::json::Parser<'_>) \
             -> ::std::result::Result<Self, ::serde::json::Error> {{ {body} }} }}"
        )
    }

    fn enum_reader(&self, variants: &[Variant]) -> String {
        let name = &self.name;
        let unknown = "__other => return ::std::result::Result::Err(\
                       ::serde::json::Error::unknown_variant(__other)),";
        let mut units = String::new();
        let mut keyed = String::new();
        for v in variants {
            let (ident, key) = (&v.ident, &v.key);
            let ctor = format!("{name}::{ident}");
            match &v.shape {
                Shape::Unit => {
                    write!(units, "{key:?} => ::std::result::Result::Ok({ctor}),").unwrap();
                    write!(
                        keyed,
                        "{key:?} => {{ <() as ::serde::Deserialize>::deserialize_json(p)?; {ctor} }}"
                    )
                    .unwrap();
                }
                Shape::Newtype => {
                    write!(keyed, "{key:?} => {ctor}(::serde::Deserialize::deserialize_json(p)?),")
                        .unwrap()
                }
                Shape::Named(fields) => {
                    write!(keyed, "{key:?} => {},", read_members(fields, &ctor)).unwrap()
                }
            }
        }
        format!(
            "if p.peek() == ::std::option::Option::Some(b'\"') {{ \
               let __name = p.parse_string()?; \
               return match &*__name {{ {units} __other => ::std::result::Result::Err(\
               ::serde::json::Error::unknown_variant(__other)), }}; \
             }} \
             let mut __outer = p.begin_object()?; \
             let ::std::option::Option::Some(__name) = p.next_key(&mut __outer)? else {{ \
               return ::std::result::Result::Err(::serde::json::Error::custom(\
               \"expected a variant of {name}\")); }}; \
             let __value = match &*__name {{ {keyed} {unknown} }}; \
             if p.next_key(&mut __outer)?.is_some() {{ \
               return ::std::result::Result::Err(::serde::json::Error::custom(\
               \"expected exactly one variant of {name}\")); }} \
             ::std::result::Result::Ok(__value)"
        )
    }

    fn tagged_enum_reader(&self, variants: &[Variant], tag: &str) -> String {
        let name = &self.name;
        let mut arms = String::new();
        for v in variants {
            let (ident, key) = (&v.ident, &v.key);
            let ctor = format!("{name}::{ident}");
            match &v.shape {
                Shape::Unit => write!(arms, "{key:?} => {{ p.skip_value()?; {ctor} }}").unwrap(),
                Shape::Newtype => {
                    write!(arms, "{key:?} => {ctor}(::serde::Deserialize::deserialize_json(p)?),")
                        .unwrap()
                }
                Shape::Named(fields) => {
                    write!(arms, "{key:?} => {},", read_members(fields, &ctor)).unwrap()
                }
            }
        }
        format!(
            "let __tag = p.find_tag({tag:?})?; \
             ::std::result::Result::Ok(match &*__tag {{ {arms} \
             __other => return ::std::result::Result::Err(\
             ::serde::json::Error::unknown_variant(__other)), }})"
        )
    }
}
