//! Table schemas.

use crate::value::Value;

/// Logical column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Str,
    Date,
}

impl DataType {
    /// Whether a runtime value matches this type (NULL matches everything).
    pub fn admits(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (DataType::Int, Value::Int(_))
                | (DataType::Float, Value::Float(_))
                | (DataType::Str, Value::Str(_))
                | (DataType::Date, Value::Date(_))
                | (_, Value::Null)
        )
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Self { name: name.into(), ty }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        Self { columns }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn of(cols: &[(&str, DataType)]) -> Self {
        Self::new(cols.iter().map(|(n, t)| ColumnDef::new(*n, *t)).collect())
    }

    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Schema resulting from projecting the given column indices.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new(indices.iter().map(|&i| self.columns[i].clone()).collect())
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, right: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(right.columns.iter().cloned());
        Schema::new(columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::of(&[("a", DataType::Int), ("b", DataType::Str), ("c", DataType::Float)])
    }

    #[test]
    fn index_lookup() {
        let s = sample();
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.index_of("c"), Some(2));
    }

    #[test]
    fn projection_preserves_order() {
        let s = sample().project(&[2, 0]);
        assert_eq!(s.names(), vec!["c", "a"]);
    }

    #[test]
    fn join_concatenates() {
        let s = sample().join(&Schema::of(&[("d", DataType::Date)]));
        assert_eq!(s.len(), 4);
        assert_eq!(s.names(), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn admits_nulls_everywhere() {
        assert!(DataType::Int.admits(&Value::Null));
        assert!(DataType::Str.admits(&Value::str("x")));
        assert!(!DataType::Str.admits(&Value::Int(1)));
    }
}
