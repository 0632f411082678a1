//! Small helpers over the tree's `serde_json` shim: build a value tree,
//! write it as one line, read one back.

use serde::Serialize;
pub use serde_json::Value;

struct Tree<'a>(&'a Value);

impl Serialize for Tree<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// One-line JSON text of a value tree (floats with all their digits).
pub fn to_line(v: &Value) -> String {
    serde_json::to_string(&Tree(v)).expect("value trees always serialize")
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(v: f64) -> Value {
    Value::Float(v)
}

pub fn int(v: u64) -> Value {
    Value::Int(v as i128)
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}
