//! A minimal JSON writer for the benchmark's records (the workspace carries no
//! serializer dependency; parsing goes through `radar_obs::JsonValue`).

use std::fmt::Write as _;

/// A JSON value under construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A whole number, printed without a fraction.
    Int(u64),
    /// A measured number, printed with every digit (non-finite values as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object and returns it, so calls chain.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn with(mut self, key: &str, value: Json) -> Json {
        let Json::Obj(members) = &mut self else {
            panic!("with() on a non-object");
        };
        members.push((key.to_owned(), value));
        self
    }

    /// Renders the value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) if x.is_finite() => {
                // `{:?}` prints the shortest representation that round-trips, and
                // always with a fraction or exponent, so no digit is lost.
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use radar_obs::JsonValue;

    #[test]
    fn rendered_objects_parse_back() {
        let value = Json::obj()
            .with("ok", Json::Bool(true))
            .with("n", Json::Int(7))
            .with("x", Json::Num(0.1 + 0.2))
            .with("inf", Json::Num(f64::INFINITY))
            .with("s", Json::Str("a \"q\"\n\u{1}".into()))
            .with("nested", Json::obj().with("v", Json::Num(3.0)));
        let text = value.render();
        let parsed = JsonValue::parse(&text).expect("own output parses");
        assert_eq!(parsed.get("x").and_then(JsonValue::as_f64), Some(0.1 + 0.2));
        assert_eq!(parsed.get("inf"), Some(&JsonValue::Null));
        assert_eq!(
            parsed.get("s").and_then(JsonValue::as_str),
            Some("a \"q\"\n\u{1}")
        );
        assert_eq!(
            parsed
                .get("nested")
                .and_then(|n| n.get("v"))
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
        assert!(!text.contains('\n'), "records stay on one line");
    }
}
