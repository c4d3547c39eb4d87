//! Table schemas: ordered, named, typed column lists.

use crate::error::{MlError, Result};
use crate::logical::LogicalType;
use std::sync::Arc;

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (stored lower-cased; SQL identifiers are
    /// case-insensitive unless quoted). Shared: a schema copy, and every
    /// plan column a binder makes of the field, copies a pointer.
    pub name: Arc<str>,
    /// Logical type.
    pub ty: LogicalType,
    /// Whether NULLs are admitted (NOT NULL constraint).
    pub nullable: bool,
}

impl Field {
    /// Construct a nullable field.
    pub fn new(name: impl Into<String>, ty: LogicalType) -> Field {
        Field { name: name.into().to_ascii_lowercase().into(), ty, nullable: true }
    }

    /// Construct a NOT NULL field.
    pub fn not_null(name: impl Into<String>, ty: LogicalType) -> Field {
        Field { nullable: false, ..Field::new(name, ty) }
    }
}

/// An ordered collection of fields describing a table or result set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build from fields, rejecting duplicate column names.
    pub fn new(fields: Vec<Field>) -> Result<Schema> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(MlError::Catalog(format!("duplicate column name '{}'", f.name)));
            }
        }
        Ok(Schema { fields })
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.fields.iter().position(|f| *f.name == *lower)
    }

    /// Field by name.
    pub fn field(&self, name: &str) -> Result<&Field> {
        self.index_of(name)
            .map(|i| &self.fields[i])
            .ok_or_else(|| MlError::Catalog(format!("unknown column '{name}'")))
    }

    /// Field by position.
    pub fn field_at(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LogicalType::*;

    #[test]
    fn lookup_is_case_insensitive() {
        let s = Schema::new(vec![Field::new("L_ORDERKEY", Int), Field::new("l_comment", Varchar)])
            .unwrap();
        assert_eq!(s.index_of("l_orderkey"), Some(0));
        assert_eq!(s.index_of("L_COMMENT"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert!(s.field("l_comment").is_ok());
        assert!(s.field("ghost").is_err());
    }

    #[test]
    fn duplicates_rejected() {
        let r = Schema::new(vec![Field::new("a", Int), Field::new("A", Double)]);
        assert!(r.is_err());
    }

    #[test]
    fn not_null_flag() {
        let f = Field::not_null("k", Int);
        assert!(!f.nullable);
        assert!(Field::new("v", Int).nullable);
    }
}
