//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::lexer::{tokenize, Token, TokenKind};
use monetlite_types::{Date, Decimal, LogicalType, MlError, Result, Value};

/// Parse exactly one statement (a trailing `;` is allowed).
pub fn parse_statement(src: &str) -> Result<Statement> {
    parse_tokens(&tokenize(src)?)
}

/// Parse exactly one statement from the tokens [`tokenize`] returned for
/// it, so a caller that lexed the text for its own use does not lex it
/// again.
pub fn parse_tokens(toks: &[Token]) -> Result<Statement> {
    if !matches!(toks.last(), Some(Token { kind: TokenKind::Eof, .. })) {
        return Err(MlError::parse("token stream does not end at end of input", 0));
    }
    let mut p = Parser { toks, pos: 0 };
    let stmt = p.statement()?;
    p.eat_kind(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a `;`-separated script.
pub fn parse_statements(src: &str) -> Result<Vec<Statement>> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks: &toks, pos: 0 };
    let mut out = Vec::new();
    loop {
        while p.eat_kind(&TokenKind::Semicolon) {}
        if p.peek_kind() == &TokenKind::Eof {
            return Ok(out);
        }
        out.push(p.statement()?);
        if !p.eat_kind(&TokenKind::Semicolon) {
            p.expect_eof()?;
            return Ok(out);
        }
    }
}

/// The value a literal token denotes, as the parser builds it: an
/// integer is INT when it fits 32 bits and BIGINT otherwise, a decimal
/// keeps the scale it was written with, and a string that follows the
/// `DATE` keyword (`date`) is a date. `None` for a token that is not a
/// literal. The plan cache's token-level memo converts literals through
/// this function too, so both paths see the same values.
pub fn literal_value(kind: &TokenKind<'_>, date: bool) -> Option<Result<Value>> {
    Some(match kind {
        TokenKind::Int(v) => Ok(match i32::try_from(*v) {
            Ok(i) => Value::Int(i),
            Err(_) => Value::Bigint(*v),
        }),
        TokenKind::Number(text) => Decimal::parse(text).map(Value::Decimal),
        TokenKind::Str(s) if date => Date::parse(s).map(Value::Date),
        TokenKind::Str(s) => Ok(Value::Str(s.to_string())),
        _ => return None,
    })
}

struct Parser<'a> {
    toks: &'a [Token<'a>],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.toks[self.pos]
    }

    fn peek_kind(&self) -> &TokenKind<'a> {
        &self.toks[self.pos].kind
    }

    fn advance(&mut self) -> &'a Token<'a> {
        let t = &self.toks[self.pos];
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> MlError {
        MlError::parse(msg, self.peek().offset)
    }

    /// Consume a specific punctuation token if present.
    fn eat_kind(&mut self, k: &TokenKind<'_>) -> bool {
        if self.peek_kind() == k {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kind(&mut self, k: &TokenKind<'_>, what: &str) -> Result<()> {
        if self.eat_kind(k) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek_kind())))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if self.peek_kind() == &TokenKind::Eof {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input: {:?}", self.peek_kind())))
        }
    }

    /// Consume a keyword (identifier with given lower-case text, in any
    /// case).
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kind().is_word(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek_kind().is_word(kw)
    }

    /// Look ahead one token past the current for a keyword.
    fn peek2_kw(&self, kw: &str) -> bool {
        self.toks.get(self.pos + 1).is_some_and(|t| t.kind.is_word(kw))
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{}', found {:?}", kw.to_uppercase(), self.peek_kind())))
        }
    }

    /// Any identifier (quoted or not), folded to lower case; quoted
    /// identifiers keep case in the text but are folded here for catalog
    /// consistency.
    fn ident(&mut self) -> Result<String> {
        match self.peek_kind().clone() {
            TokenKind::Ident(s) | TokenKind::QuotedIdent(s) => {
                self.advance();
                Ok(s.to_ascii_lowercase())
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    // -- statements ---------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        if self.peek_kw("select") || self.peek_kw("with") {
            return Ok(Statement::Select(Box::new(self.select_stmt()?)));
        }
        if self.eat_kw("explain") {
            return Ok(Statement::Explain(Box::new(self.statement()?)));
        }
        if self.eat_kw("create") {
            return self.create_stmt();
        }
        if self.eat_kw("drop") {
            let is_view = self.eat_kw("view");
            if !is_view {
                self.expect_kw("table")?;
            }
            let if_exists = if self.eat_kw("if") {
                self.expect_kw("exists")?;
                true
            } else {
                false
            };
            let name = self.ident()?;
            return Ok(if is_view {
                Statement::DropView { name, if_exists }
            } else {
                Statement::DropTable { name, if_exists }
            });
        }
        if self.eat_kw("insert") {
            return self.insert_stmt();
        }
        if self.eat_kw("delete") {
            self.expect_kw("from")?;
            let table = self.ident()?;
            let filter = if self.eat_kw("where") { Some(self.expr()?) } else { None };
            return Ok(Statement::Delete { table, filter });
        }
        if self.eat_kw("update") {
            let table = self.ident()?;
            self.expect_kw("set")?;
            let mut sets = Vec::new();
            loop {
                let col = self.ident()?;
                self.expect_kind(&TokenKind::Eq, "'='")?;
                sets.push((col, self.expr()?));
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            let filter = if self.eat_kw("where") { Some(self.expr()?) } else { None };
            return Ok(Statement::Update { table, sets, filter });
        }
        if self.eat_kw("begin") {
            self.eat_kw("transaction");
            return Ok(Statement::Begin);
        }
        if self.eat_kw("start") {
            self.expect_kw("transaction")?;
            return Ok(Statement::Begin);
        }
        if self.eat_kw("commit") {
            return Ok(Statement::Commit);
        }
        if self.eat_kw("rollback") {
            return Ok(Statement::Rollback);
        }
        Err(self.err(format!("expected a statement, found {:?}", self.peek_kind())))
    }

    fn create_stmt(&mut self) -> Result<Statement> {
        if self.eat_kw("table") {
            let name = self.ident()?;
            self.expect_kind(&TokenKind::LParen, "'('")?;
            let mut columns = Vec::new();
            loop {
                let col = self.ident()?;
                let ty = self.type_name()?;
                let mut nullable = true;
                loop {
                    if self.eat_kw("not") {
                        self.expect_kw("null")?;
                        nullable = false;
                    } else if self.eat_kw("primary") {
                        self.expect_kw("key")?;
                        nullable = false;
                    } else if self.eat_kw("null") {
                        // explicit NULL: default
                    } else {
                        break;
                    }
                }
                columns.push(ColumnDef { name: col, ty, nullable });
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(&TokenKind::RParen, "')'")?;
            return Ok(Statement::CreateTable { name, columns });
        }
        if self.eat_kw("view") {
            let name = self.ident()?;
            let columns = self.opt_column_alias_list()?;
            self.expect_kw("as")?;
            let query = self.select_stmt()?;
            return Ok(Statement::CreateView { name, columns, query: Box::new(query) });
        }
        let ordered = self.eat_kw("order");
        if self.eat_kw("index") {
            let name = self.ident()?;
            self.expect_kw("on")?;
            let table = self.ident()?;
            self.expect_kind(&TokenKind::LParen, "'('")?;
            let column = self.ident()?;
            self.expect_kind(&TokenKind::RParen, "')'")?;
            return Ok(Statement::CreateIndex { name, table, column, ordered });
        }
        Err(self.err("expected TABLE, VIEW or [ORDER] INDEX after CREATE"))
    }

    /// Parse an optional parenthesised identifier list: `(a, b, c)`.
    fn opt_column_alias_list(&mut self) -> Result<Option<Vec<String>>> {
        if !self.eat_kind(&TokenKind::LParen) {
            return Ok(None);
        }
        let mut cols = Vec::new();
        loop {
            cols.push(self.ident()?);
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_kind(&TokenKind::RParen, "')'")?;
        Ok(Some(cols))
    }

    fn insert_stmt(&mut self) -> Result<Statement> {
        self.expect_kw("into")?;
        let table = self.ident()?;
        let columns = if self.peek_kind() == &TokenKind::LParen && !self.peek2_kw("values") {
            self.advance();
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(&TokenKind::RParen, "')'")?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_kind(&TokenKind::LParen, "'('")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(&TokenKind::RParen, "')'")?;
            rows.push(row);
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, columns, rows })
    }

    fn type_name(&mut self) -> Result<LogicalType> {
        let name = self.ident()?;
        Ok(match name.as_str() {
            "int" | "integer" | "smallint" | "tinyint" => LogicalType::Int,
            "bigint" => LogicalType::Bigint,
            "double" => {
                self.eat_kw("precision");
                LogicalType::Double
            }
            "float" | "real" => LogicalType::Double,
            "decimal" | "numeric" => {
                if self.eat_kind(&TokenKind::LParen) {
                    let width = self.int_literal()? as u8;
                    let scale = if self.eat_kind(&TokenKind::Comma) {
                        self.int_literal()? as u8
                    } else {
                        0
                    };
                    self.expect_kind(&TokenKind::RParen, "')'")?;
                    LogicalType::Decimal { width, scale }
                } else {
                    LogicalType::Decimal { width: LogicalType::DECIMAL_WIDTH, scale: 3 }
                }
            }
            "varchar" | "char" | "character" | "text" | "string" | "clob" => {
                if self.eat_kind(&TokenKind::LParen) {
                    self.int_literal()?;
                    self.expect_kind(&TokenKind::RParen, "')'")?;
                }
                LogicalType::Varchar
            }
            "date" => LogicalType::Date,
            "boolean" | "bool" => LogicalType::Bool,
            other => return Err(self.err(format!("unknown type '{other}'"))),
        })
    }

    fn int_literal(&mut self) -> Result<i64> {
        match *self.peek_kind() {
            TokenKind::Int(v) => {
                self.advance();
                Ok(v)
            }
            _ => Err(self.err("expected integer literal")),
        }
    }

    // -- SELECT -------------------------------------------------------------

    /// True when the upcoming tokens start a (sub)query.
    fn peek_select_start(&self) -> bool {
        self.peek_kw("select") || self.peek_kw("with")
    }

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        let mut ctes = Vec::new();
        if self.eat_kw("with") {
            loop {
                let name = self.ident()?;
                let columns = self.opt_column_alias_list()?;
                self.expect_kw("as")?;
                self.expect_kind(&TokenKind::LParen, "'('")?;
                let query = self.select_stmt()?;
                self.expect_kind(&TokenKind::RParen, "')'")?;
                ctes.push(Cte { name, columns, query });
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let mut stmt = self.select_body()?;
        stmt.ctes = ctes;
        Ok(stmt)
    }

    fn select_body(&mut self) -> Result<SelectStmt> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        if !distinct {
            self.eat_kw("all");
        }
        let mut projections = Vec::new();
        loop {
            projections.push(self.select_item()?);
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw("from") {
            loop {
                from.push(self.table_ref()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") { Some(self.expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") { Some(self.int_literal()? as u64) } else { None };
        Ok(SelectStmt {
            ctes: vec![],
            distinct,
            projections,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.peek_kind() == &TokenKind::Star {
            self.advance();
            return Ok(SelectItem::Wildcard);
        }
        // t.* — identifier dot star
        if let TokenKind::Ident(name) = self.peek_kind().clone() {
            if self.toks.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::Dot)
                && self.toks.get(self.pos + 2).map(|t| &t.kind) == Some(&TokenKind::Star)
            {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(name.to_ascii_lowercase()));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else {
            // Implicit alias: a bare identifier that is not a clause
            // keyword.
            match self.peek_kind() {
                TokenKind::Ident(s) if !is_clause_keyword(s) => Some(self.ident()?),
                TokenKind::QuotedIdent(_) => Some(self.ident()?),
                _ => None,
            }
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_factor()?;
        loop {
            let kind = if self.eat_kw("inner") {
                self.expect_kw("join")?;
                JoinKind::Inner
            } else if self.eat_kw("left") {
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Left
            } else if self.eat_kw("cross") {
                self.expect_kw("join")?;
                JoinKind::Cross
            } else if self.eat_kw("join") {
                JoinKind::Inner
            } else {
                return Ok(left);
            };
            let right = self.table_factor()?;
            let on = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_kw("on")?;
                Some(self.expr()?)
            };
            left = TableRef::Join { left: Box::new(left), right: Box::new(right), kind, on };
        }
    }

    fn table_factor(&mut self) -> Result<TableRef> {
        if self.eat_kind(&TokenKind::LParen) {
            if self.peek_select_start() {
                let query = self.select_stmt()?;
                self.expect_kind(&TokenKind::RParen, "')'")?;
                self.eat_kw("as");
                let alias = self.ident()?;
                let columns = self.opt_column_alias_list()?;
                return Ok(TableRef::Subquery { query: Box::new(query), alias, columns });
            }
            // Parenthesised join tree.
            let inner = self.table_ref()?;
            self.expect_kind(&TokenKind::RParen, "')'")?;
            return Ok(inner);
        }
        let name = self.ident()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else {
            match self.peek_kind() {
                TokenKind::Ident(s) if !is_clause_keyword(s) && !is_join_keyword(s) => {
                    Some(self.ident()?)
                }
                _ => None,
            }
        };
        Ok(TableRef::Table { name, alias })
    }

    // -- expressions ----------------------------------------------------

    /// Entry: lowest precedence (OR).
    fn expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::Binary { op: BinOp::Or, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::Binary { op: BinOp::And, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            return Ok(Expr::Not(Box::new(self.not_expr()?)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // Postfix predicates first: IS NULL, BETWEEN, IN, LIKE (optionally
        // NOT-prefixed).
        let negated = if self.peek_kw("not")
            && (self.peek2_kw("like") || self.peek2_kw("between") || self.peek2_kw("in"))
        {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw("is") {
            let neg = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated: neg });
        }
        if self.eat_kw("like") {
            let pat = match self.peek_kind().clone() {
                TokenKind::Str(s) => {
                    self.advance();
                    s.into_owned()
                }
                _ => return Err(self.err("LIKE pattern must be a string literal")),
            };
            return Ok(Expr::Like { expr: Box::new(left), pattern: pat, negated });
        }
        if self.eat_kw("between") {
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("in") {
            self.expect_kind(&TokenKind::LParen, "'('")?;
            if self.peek_select_start() {
                let q = self.select_stmt()?;
                self.expect_kind(&TokenKind::RParen, "')'")?;
                return Ok(Expr::InSubquery { expr: Box::new(left), query: Box::new(q), negated });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(&TokenKind::RParen, "')'")?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if negated {
            return Err(self.err("expected LIKE, BETWEEN or IN after NOT"));
        }
        let op = match self.peek_kind() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::NotEq => BinOp::NotEq,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::LtEq => BinOp::LtEq,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::GtEq => BinOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.additive()?;
        Ok(Expr::Binary { op, left: Box::new(left), right: Box::new(right) })
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.multiplicative()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.unary()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_kind(&TokenKind::Minus) {
            return Ok(Expr::Neg(Box::new(self.unary()?)));
        }
        if self.eat_kind(&TokenKind::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        if let Some(v) = literal_value(self.peek_kind(), false) {
            self.advance();
            return Ok(Expr::Literal(v.map_err(|e| self.err(e.to_string()))?));
        }
        match self.peek_kind().clone() {
            TokenKind::LParen => {
                self.advance();
                if self.peek_select_start() {
                    let q = self.select_stmt()?;
                    self.expect_kind(&TokenKind::RParen, "')'")?;
                    return Ok(Expr::ScalarSubquery(Box::new(q)));
                }
                let e = self.expr()?;
                self.expect_kind(&TokenKind::RParen, "')'")?;
                Ok(e)
            }
            TokenKind::Ident(word) => {
                // Clause keywords can never start an expression; catching
                // them here turns `SELECT FROM t` into a parse error
                // instead of a bogus column reference.
                let word = word.to_ascii_lowercase();
                if is_clause_keyword(&word) {
                    return Err(self.err(format!("unexpected keyword '{}'", word.to_uppercase())));
                }
                self.ident_expr(word)
            }
            other => Err(self.err(format!("unexpected token in expression: {other:?}"))),
        }
    }

    fn ident_expr(&mut self, word: String) -> Result<Expr> {
        match word.as_str() {
            "null" => {
                self.advance();
                return Ok(Expr::Literal(Value::Null));
            }
            "true" => {
                self.advance();
                return Ok(Expr::Literal(Value::Bool(true)));
            }
            "false" => {
                self.advance();
                return Ok(Expr::Literal(Value::Bool(false)));
            }
            "date" => {
                // date '1995-01-01'
                if let Some(TokenKind::Str(_)) = self.toks.get(self.pos + 1).map(|t| &t.kind) {
                    self.advance();
                    if let Some(v) = literal_value(&self.advance().kind, true) {
                        return Ok(Expr::Literal(v.map_err(|e| self.err(e.to_string()))?));
                    }
                }
            }
            "interval" => {
                self.advance();
                let mag: i32 = match self.peek_kind().clone() {
                    TokenKind::Str(s) => {
                        self.advance();
                        s.parse().map_err(|_| self.err("invalid interval magnitude"))?
                    }
                    TokenKind::Int(v) => {
                        self.advance();
                        v as i32
                    }
                    _ => return Err(self.err("expected interval magnitude")),
                };
                let unit = if self.eat_kw("day") {
                    IntervalUnit::Day
                } else if self.eat_kw("month") {
                    IntervalUnit::Month
                } else if self.eat_kw("year") {
                    IntervalUnit::Year
                } else {
                    return Err(self.err("expected DAY, MONTH or YEAR"));
                };
                return Ok(Expr::Interval { value: mag, unit });
            }
            "case" => {
                self.advance();
                return self.case_expr();
            }
            "exists" => {
                self.advance();
                self.expect_kind(&TokenKind::LParen, "'('")?;
                let q = self.select_stmt()?;
                self.expect_kind(&TokenKind::RParen, "')'")?;
                return Ok(Expr::Exists { query: Box::new(q), negated: false });
            }
            "cast" => {
                self.advance();
                self.expect_kind(&TokenKind::LParen, "'('")?;
                let e = self.expr()?;
                self.expect_kw("as")?;
                let ty = self.type_name()?;
                self.expect_kind(&TokenKind::RParen, "')'")?;
                return Ok(Expr::Cast { expr: Box::new(e), ty });
            }
            "extract" => {
                self.advance();
                self.expect_kind(&TokenKind::LParen, "'('")?;
                let field = if self.eat_kw("year") {
                    DateField::Year
                } else if self.eat_kw("month") {
                    DateField::Month
                } else if self.eat_kw("day") {
                    DateField::Day
                } else {
                    return Err(self.err("expected YEAR, MONTH or DAY"));
                };
                self.expect_kw("from")?;
                let e = self.expr()?;
                self.expect_kind(&TokenKind::RParen, "')'")?;
                return Ok(Expr::Extract { field, expr: Box::new(e) });
            }
            _ => {}
        }
        // SQL-standard substring: substring(x FROM a [FOR b]). The
        // comma-argument form falls through to the generic call path.
        if (word == "substring" || word == "substr")
            && self.toks.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::LParen)
        {
            self.advance(); // name
            self.advance(); // (
            let s = self.expr()?;
            let mut args = vec![s];
            if self.eat_kw("from") {
                args.push(self.expr()?);
                if self.eat_kw("for") {
                    args.push(self.expr()?);
                }
            } else {
                while self.eat_kind(&TokenKind::Comma) {
                    args.push(self.expr()?);
                }
            }
            self.expect_kind(&TokenKind::RParen, "')'")?;
            return Ok(Expr::Function { name: "substring".into(), args });
        }
        // Aggregate or plain function call?
        if self.toks.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::LParen) {
            if let Some(func) = agg_func(&word) {
                self.advance(); // name
                self.advance(); // (
                if self.peek_kind() == &TokenKind::Star {
                    self.advance();
                    self.expect_kind(&TokenKind::RParen, "')'")?;
                    if func != AggFunc::Count {
                        return Err(self.err("only COUNT(*) accepts '*'"));
                    }
                    return Ok(Expr::Agg { func, arg: None, distinct: false });
                }
                let distinct = self.eat_kw("distinct");
                let arg = self.expr()?;
                self.expect_kind(&TokenKind::RParen, "')'")?;
                return Ok(Expr::Agg { func, arg: Some(Box::new(arg)), distinct });
            }
            // Scalar function.
            self.advance();
            self.advance();
            let mut args = Vec::new();
            if self.peek_kind() != &TokenKind::RParen {
                loop {
                    args.push(self.expr()?);
                    if !self.eat_kind(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect_kind(&TokenKind::RParen, "')'")?;
            return Ok(Expr::Function { name: word, args });
        }
        // Column reference, possibly qualified.
        self.advance();
        if self.eat_kind(&TokenKind::Dot) {
            let col = self.ident()?;
            return Ok(Expr::Column { table: Some(word), name: col });
        }
        Ok(Expr::Column { table: None, name: word })
    }

    fn case_expr(&mut self) -> Result<Expr> {
        let mut branches = Vec::new();
        while self.eat_kw("when") {
            let cond = self.expr()?;
            self.expect_kw("then")?;
            let val = self.expr()?;
            branches.push((cond, val));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN branch"));
        }
        let else_expr = if self.eat_kw("else") { Some(Box::new(self.expr()?)) } else { None };
        self.expect_kw("end")?;
        Ok(Expr::Case { branches, else_expr })
    }
}

fn agg_func(name: &str) -> Option<AggFunc> {
    Some(match name {
        "count" => AggFunc::Count,
        "sum" => AggFunc::Sum,
        "avg" => AggFunc::Avg,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        "median" => AggFunc::Median,
        _ => return None,
    })
}

/// Words that end an expression or a FROM item, so they are never read
/// as an implicit alias.
const CLAUSE_KEYWORDS: &[&str] = &[
    "from", "where", "group", "having", "order", "limit", "on", "inner", "left", "right", "cross",
    "join", "union", "and", "or", "not", "as", "when", "then", "else", "end", "asc", "desc",
    "between", "like", "in", "is", "set", "values", "with",
];

/// Is `s` (in any case) a clause keyword?
fn is_clause_keyword(s: &str) -> bool {
    CLAUSE_KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k))
}

/// Is `s` (in any case) a word that starts or qualifies a join?
fn is_join_keyword(s: &str) -> bool {
    ["join", "inner", "left", "right", "cross", "on"].iter().any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(src: &str) -> SelectStmt {
        match parse_statement(src).unwrap() {
            Statement::Select(s) => *s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn minimal_select() {
        let s = sel("SELECT a, b FROM t");
        assert_eq!(s.projections.len(), 2);
        assert_eq!(s.from.len(), 1);
        assert!(s.where_clause.is_none());
    }

    #[test]
    fn select_with_all_clauses() {
        let s = sel("SELECT a, sum(b) AS total FROM t WHERE c > 5 GROUP BY a \
             HAVING sum(b) > 10 ORDER BY total DESC LIMIT 3");
        assert!(s.having.is_some());
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.limit, Some(3));
        assert!(s.order_by[0].desc);
        match &s.projections[1] {
            SelectItem::Expr { alias, expr } => {
                assert_eq!(alias.as_deref(), Some("total"));
                assert!(expr.contains_aggregate());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn implicit_alias_without_as() {
        let s = sel("SELECT a col1, b FROM t");
        match &s.projections[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("col1")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let s = sel("SELECT 1 + 2 * 3 FROM t");
        match &s.projections[0] {
            SelectItem::Expr { expr: Expr::Binary { op: BinOp::Add, right, .. }, .. } => {
                assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let s = sel("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        match s.where_clause.unwrap() {
            Expr::Binary { op: BinOp::Or, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn date_and_interval_literals() {
        let s = sel("SELECT * FROM t WHERE d <= date '1998-12-01' - interval '90' day");
        match s.where_clause.unwrap() {
            Expr::Binary { op: BinOp::LtEq, right, .. } => match *right {
                Expr::Binary { op: BinOp::Sub, left, right } => {
                    assert!(matches!(*left, Expr::Literal(Value::Date(_))));
                    assert!(matches!(
                        *right,
                        Expr::Interval { value: 90, unit: IntervalUnit::Day }
                    ));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn between_like_in() {
        let s = sel("SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b LIKE '%green%' \
             AND c IN ('x','y') AND d NOT LIKE 'q%' AND e NOT IN (1,2)");
        let mut count_preds = 0;
        fn walk(e: &Expr, n: &mut usize) {
            match e {
                Expr::Binary { left, right, .. } => {
                    walk(left, n);
                    walk(right, n);
                }
                Expr::Between { .. } | Expr::Like { .. } | Expr::InList { .. } => *n += 1,
                _ => {}
            }
        }
        walk(&s.where_clause.unwrap(), &mut count_preds);
        assert_eq!(count_preds, 5);
    }

    #[test]
    fn case_when() {
        let s = sel("SELECT sum(CASE WHEN n = 'BRAZIL' THEN v ELSE 0 END) / sum(v) FROM t");
        assert!(
            matches!(&s.projections[0], SelectItem::Expr { expr, .. } if expr.contains_aggregate())
        );
    }

    #[test]
    fn exists_subquery() {
        let s = sel("SELECT * FROM orders o WHERE EXISTS (SELECT * FROM lineitem l \
             WHERE l.l_orderkey = o.o_orderkey)");
        assert!(matches!(s.where_clause.unwrap(), Expr::Exists { negated: false, .. }));
    }

    #[test]
    fn not_exists_parsed_via_not() {
        let s = sel("SELECT * FROM t WHERE NOT EXISTS (SELECT * FROM u)");
        assert!(matches!(s.where_clause.unwrap(), Expr::Not(_)));
    }

    #[test]
    fn scalar_subquery() {
        let s = sel("SELECT * FROM partsupp WHERE ps_supplycost = \
             (SELECT min(ps_supplycost) FROM partsupp)");
        match s.where_clause.unwrap() {
            Expr::Binary { right, .. } => assert!(matches!(*right, Expr::ScalarSubquery(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn joins_explicit_and_left() {
        let s = sel("SELECT * FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y");
        match &s.from[0] {
            TableRef::Join { kind: JoinKind::Left, left, .. } => {
                assert!(matches!(**left, TableRef::Join { kind: JoinKind::Inner, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comma_joins_and_aliases() {
        let s = sel("SELECT * FROM customer c, orders o, lineitem WHERE c.k = o.k");
        assert_eq!(s.from.len(), 3);
        assert!(matches!(&s.from[0], TableRef::Table { alias: Some(a), .. } if a == "c"));
        assert!(matches!(&s.from[2], TableRef::Table { alias: None, .. }));
    }

    #[test]
    fn derived_table() {
        let s = sel("SELECT x FROM (SELECT a AS x FROM t) AS sub WHERE x > 1");
        assert!(matches!(&s.from[0], TableRef::Subquery { alias, .. } if alias == "sub"));
    }

    #[test]
    fn extract_and_functions() {
        let s = sel("SELECT extract(year FROM o_orderdate), sqrt(i * 2) FROM t");
        assert!(matches!(
            &s.projections[0],
            SelectItem::Expr { expr: Expr::Extract { field: DateField::Year, .. }, .. }
        ));
        assert!(matches!(
            &s.projections[1],
            SelectItem::Expr { expr: Expr::Function { name, .. }, .. } if name == "sqrt"
        ));
    }

    #[test]
    fn create_table_types() {
        let stmt = parse_statement(
            "CREATE TABLE lineitem (l_orderkey INTEGER NOT NULL, l_quantity DECIMAL(15,2), \
             l_shipdate DATE, l_comment VARCHAR(44), l_flag BOOLEAN, big BIGINT, d DOUBLE PRECISION)",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "lineitem");
                assert_eq!(columns.len(), 7);
                assert!(!columns[0].nullable);
                assert_eq!(columns[1].ty, LogicalType::Decimal { width: 15, scale: 2 });
                assert_eq!(columns[6].ty, LogicalType::Double);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        let stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").unwrap();
        match stmt {
            Statement::Insert { columns, rows, .. } => {
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][1], Expr::Literal(Value::Null));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_delete() {
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE a = 1").unwrap(),
            Statement::Delete { .. }
        ));
        match parse_statement("UPDATE t SET a = a + 1, b = 'x' WHERE c < 3").unwrap() {
            Statement::Update { sets, filter, .. } => {
                assert_eq!(sets.len(), 2);
                assert!(filter.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_index_statement() {
        match parse_statement("CREATE ORDER INDEX oi ON lineitem (l_shipdate)").unwrap() {
            Statement::CreateIndex { ordered, table, column, .. } => {
                assert!(ordered);
                assert_eq!(table, "lineitem");
                assert_eq!(column, "l_shipdate");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_statement("CREATE INDEX i ON t (c)").unwrap(),
            Statement::CreateIndex { ordered: false, .. }
        ));
    }

    #[test]
    fn transactions_and_explain() {
        assert_eq!(parse_statement("BEGIN TRANSACTION").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("START TRANSACTION").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(parse_statement("ROLLBACK").unwrap(), Statement::Rollback);
        assert!(matches!(
            parse_statement("EXPLAIN SELECT 1 FROM t").unwrap(),
            Statement::Explain(_)
        ));
    }

    #[test]
    fn multi_statement_script() {
        let stmts =
            parse_statements("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn errors_report_offset() {
        match parse_statement("SELECT FROM t") {
            Err(MlError::Parse { offset, .. }) => assert_eq!(offset, 7),
            other => panic!("{other:?}"),
        }
        assert!(parse_statement("SELEC 1").is_err());
        assert!(parse_statement("SELECT * FROM t WHERE a NOT 5").is_err());
    }

    #[test]
    fn with_cte_parses() {
        let s = sel("WITH revenue (supplier_no, total_revenue) AS \
             (SELECT l_suppkey, sum(l_extendedprice) FROM lineitem GROUP BY l_suppkey) \
             SELECT supplier_no FROM revenue WHERE total_revenue > 100");
        assert_eq!(s.ctes.len(), 1);
        assert_eq!(s.ctes[0].name, "revenue");
        assert_eq!(
            s.ctes[0].columns.as_deref(),
            Some(&["supplier_no".to_string(), "total_revenue".to_string()][..])
        );
        assert_eq!(s.projections.len(), 1);
        // Two CTEs, the second referencing the first.
        let s2 = sel("WITH a AS (SELECT 1 AS x), b AS (SELECT x FROM a) SELECT x FROM b");
        assert_eq!(s2.ctes.len(), 2);
    }

    #[test]
    fn create_and_drop_view_parse() {
        match parse_statement(
            "CREATE VIEW revenue0 (supplier_no, total_revenue) AS \
             SELECT l_suppkey, sum(l_extendedprice) FROM lineitem GROUP BY l_suppkey",
        )
        .unwrap()
        {
            Statement::CreateView { name, columns, query } => {
                assert_eq!(name, "revenue0");
                assert_eq!(columns.unwrap().len(), 2);
                assert_eq!(query.group_by.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_statement("DROP VIEW revenue0").unwrap(),
            Statement::DropView { if_exists: false, .. }
        ));
        assert!(matches!(
            parse_statement("DROP VIEW IF EXISTS revenue0").unwrap(),
            Statement::DropView { if_exists: true, .. }
        ));
    }

    #[test]
    fn substring_from_for_parses() {
        let s = sel("SELECT substring(c_phone from 1 for 2) FROM customer");
        match &s.projections[0] {
            SelectItem::Expr { expr: Expr::Function { name, args }, .. } => {
                assert_eq!(name, "substring");
                assert_eq!(args.len(), 3);
            }
            other => panic!("{other:?}"),
        }
        // FROM-only form (to end of string) and the comma form.
        let s2 = sel("SELECT substring(x from 3), substr(x, 1, 2) FROM t");
        match &s2.projections[0] {
            SelectItem::Expr { expr: Expr::Function { args, .. }, .. } => assert_eq!(args.len(), 2),
            other => panic!("{other:?}"),
        }
        match &s2.projections[1] {
            SelectItem::Expr { expr: Expr::Function { name, args }, .. } => {
                assert_eq!(name, "substring");
                assert_eq!(args.len(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn derived_table_column_aliases() {
        let s = sel("SELECT c_count, count(*) FROM (SELECT c_custkey, count(o_orderkey) \
             FROM customer GROUP BY c_custkey) AS c_orders (c_custkey, c_count) GROUP BY c_count");
        match &s.from[0] {
            TableRef::Subquery { alias, columns, .. } => {
                assert_eq!(alias, "c_orders");
                assert_eq!(
                    columns.as_deref(),
                    Some(&["c_custkey".to_string(), "c_count".to_string()][..])
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn or_of_and_groups_parse() {
        // Q19's shape: three OR'd parenthesised AND groups over mixed
        // columns.
        let s = sel("SELECT sum(p) FROM part, lineitem WHERE \
             (p_partkey = l_partkey AND p_brand = 'Brand#12' AND l_quantity >= 1) \
             OR (p_partkey = l_partkey AND p_brand = 'Brand#23' AND l_quantity >= 10) \
             OR (p_partkey = l_partkey AND p_brand = 'Brand#34' AND l_quantity >= 20)");
        match s.where_clause.unwrap() {
            Expr::Binary { op: BinOp::Or, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tpch_q1_parses() {
        let q = "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, \
            sum(l_extendedprice) as sum_base_price, \
            sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, \
            sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, \
            avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, \
            avg(l_discount) as avg_disc, count(*) as count_order \
            from lineitem where l_shipdate <= date '1998-12-01' - interval '90' day \
            group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus";
        let s = sel(q);
        assert_eq!(s.projections.len(), 10);
        assert_eq!(s.group_by.len(), 2);
    }

    #[test]
    fn tpch_q8_style_nested_from_parses() {
        let q = "select o_year, sum(case when nation = 'BRAZIL' then volume else 0 end) / sum(volume) as mkt_share \
                 from (select extract(year from o_orderdate) as o_year, \
                       l_extendedprice * (1 - l_discount) as volume, n2.n_name as nation \
                       from part, supplier, lineitem, orders, customer, nation n1, nation n2, region \
                       where p_partkey = l_partkey and s_suppkey = l_suppkey) as all_nations \
                 group by o_year order by o_year";
        let s = sel(q);
        assert!(matches!(&s.from[0], TableRef::Subquery { alias, .. } if alias == "all_nations"));
    }
}
