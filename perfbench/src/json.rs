//! A minimal JSON object writer (the workspace has no serde).

/// Builds one JSON object, keys in insertion order.
pub struct Obj {
    out: String,
}

impl Obj {
    pub fn new() -> Obj {
        Obj {
            out: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push_str(", ");
        }
        self.out.push_str(&quote(key));
        self.out.push_str(": ");
    }

    pub fn str(mut self, key: &str, value: &str) -> Obj {
        self.key(key);
        self.out.push_str(&quote(value));
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> Obj {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }

    /// A float with all its digits; non-finite values become `null`.
    pub fn num(mut self, key: &str, value: f64) -> Obj {
        self.key(key);
        if value.is_finite() {
            self.out.push_str(&format!("{value:?}"));
        } else {
            self.out.push_str("null");
        }
        self
    }

    pub fn bool(mut self, key: &str, value: bool) -> Obj {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// A value that is already JSON text.
    pub fn raw(mut self, key: &str, json: &str) -> Obj {
        self.key(key);
        self.out.push_str(json);
        self
    }

    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// A JSON array of already-encoded values.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(", "))
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
