//! A JSON writer small enough to need no dependency. Numbers print with
//! every digit `f64` carries; a value that is not finite prints as `null`.

pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys keep the order they were given in.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Render on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with one key or element per line, indented by two spaces.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(n * depth));
            }
        };
        let sep = if indent.is_some() { ": " } else { ":" };
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => out.push_str(&x.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(sep);
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_with_all_digits() {
        let j = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            (
                "metrics",
                Json::obj([(
                    "latency_ms",
                    Json::obj([
                        ("value", Json::Num(1.2034567891)),
                        ("unit", Json::str("ms")),
                    ]),
                )]),
            ),
        ]);
        assert_eq!(
            j.render(),
            r#"{"correct":true,"attempted":1000,"metrics":{"latency_ms":{"value":1.2034567891,"unit":"ms"}}}"#
        );
    }

    #[test]
    fn escapes_strings_and_nulls_non_finite_numbers() {
        let j = Json::Arr(vec![
            Json::str("a\"b\\c\nd\u{1}"),
            Json::Num(f64::NAN),
            Json::Num(-0.5),
        ]);
        assert_eq!(j.render(), r#"["a\"b\\c\nd\u0001",null,-0.5]"#);
    }

    #[test]
    fn pretty_output_indents_and_ends_with_a_newline() {
        let j = Json::obj([
            ("a", Json::Arr(vec![Json::Num(1.0)])),
            ("b", Json::Obj(vec![])),
        ]);
        assert_eq!(
            j.render_pretty(),
            "{\n  \"a\": [\n    1\n  ],\n  \"b\": {}\n}\n"
        );
    }
}
