//! # monetlite-sql
//!
//! SQL frontend shared by the `monetlite` columnar engine and the
//! `monetlite-rowstore` baseline: a hand-written lexer ([`lexer`]), the
//! abstract syntax tree ([`ast`]) and a recursive-descent parser
//! ([`parser`]).
//!
//! The dialect covers what the paper's workloads require (§4): the full
//! TPC-H Q1–Q22 feature set — multi-way joins (inner and left outer),
//! grouped aggregation with HAVING, ORDER BY/LIMIT, scalar and
//! EXISTS/IN subqueries (correlated), `WITH` common table expressions,
//! derived tables with column alias lists, CASE, LIKE, BETWEEN,
//! `substring(x FROM a FOR b)`, EXTRACT and DATE/INTERVAL arithmetic —
//! plus the DDL/DML surface of an embedded store: CREATE/DROP TABLE,
//! CREATE/DROP VIEW, CREATE \[ORDER\] INDEX, INSERT/UPDATE/DELETE, and
//! explicit transactions.

#![forbid(unsafe_code)]

pub mod ast;
pub mod canon;
pub mod lexer;
pub mod parser;

pub use ast::*;
pub use parser::{literal_value, parse_statement, parse_statements, parse_tokens};
