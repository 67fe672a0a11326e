//! Error types for the storage layer.

use std::fmt;

/// Errors raised by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A relation was requested by name but does not exist in the catalog.
    UnknownRelation(String),
    /// A column was requested by name but is not part of the schema.
    UnknownColumn { relation: String, column: String },
    /// Columns of a relation do not all have the same length.
    ColumnLengthMismatch { relation: String, expected: usize, found: usize },
    /// A value of the wrong type was pushed into a typed column.
    TypeMismatch { expected: &'static str, found: &'static str },
    /// A relation with the same name already exists in the catalog.
    DuplicateRelation(String),
    /// Schema arity does not match the number of supplied columns or values.
    ArityMismatch { expected: usize, found: usize },
    /// A string-literal predicate reached evaluation without being resolved
    /// against the catalog dictionary (see `Predicate::resolve_strings`).
    UnresolvedStringLiteral { column: String, text: String },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownRelation(name) => write!(f, "unknown relation: {name}"),
            StorageError::UnknownColumn { relation, column } => {
                write!(f, "unknown column {column} in relation {relation}")
            }
            StorageError::ColumnLengthMismatch { relation, expected, found } => write!(
                f,
                "column length mismatch in relation {relation}: expected {expected}, found {found}"
            ),
            StorageError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            StorageError::DuplicateRelation(name) => {
                write!(f, "relation already exists: {name}")
            }
            StorageError::ArityMismatch { expected, found } => {
                write!(f, "arity mismatch: expected {expected}, found {found}")
            }
            StorageError::UnresolvedStringLiteral { column, text } => write!(
                f,
                "string literal {column} vs '{text}' was not resolved against the dictionary"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience alias used throughout the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_relation() {
        let err = StorageError::UnknownRelation("cast_info".to_string());
        assert_eq!(err.to_string(), "unknown relation: cast_info");
    }

    #[test]
    fn display_unknown_column() {
        let err = StorageError::UnknownColumn {
            relation: "title".to_string(),
            column: "year".to_string(),
        };
        assert!(err.to_string().contains("year"));
        assert!(err.to_string().contains("title"));
    }

    #[test]
    fn display_type_mismatch() {
        let err = StorageError::TypeMismatch { expected: "Int64", found: "Str" };
        assert!(err.to_string().contains("Int64"));
    }
}
