//! Typed access to a parsed [`Table`] with schema diagnostics.
//!
//! A [`View`] wraps a table, records every key the schema asks about, and
//! rejects leftovers at [`View::deny_unknown`] time with the offending
//! key's line and column plus the accepted-key list — the same philosophy
//! as the CLI's `reject_unknown_flags`.
//!
//! Every scalar is read through one [`FromValue`] conversion, whether it is
//! a key's value ([`View::opt`], [`View::req`]) or an array element
//! ([`elem`]): a type has one reading and one set of diagnostics wherever
//! it appears.

use actuary_dse::portfolio::ReuseScheme;
use actuary_dse::refine::ExploreMode;
use actuary_model::AssemblyFlow;
use actuary_tech::IntegrationKind;

use crate::error::ScenarioError;
use crate::jobs::ExploreOutput;
use crate::toml::{Entry, Pos, Table, Value};

/// Why a value failed its [`FromValue`] conversion. A key and an array
/// element word the same reason differently ([`Invalid::for_key`],
/// [`Invalid::for_elem`]).
pub(crate) enum Invalid {
    /// The value has another TOML type; names the expected one.
    Type(&'static str),
    /// A negative integer where a count is expected.
    Negative,
    /// An integer above `u32::MAX`.
    TooLarge,
    /// A string outside the type's grammar, with the grammar's message.
    Grammar(String),
}

impl Invalid {
    /// The message for the value of key `key` in table `context`.
    fn for_key(self, key: &str, context: &str, got: &Value) -> String {
        match self {
            Invalid::Type(want) => format!(
                "key `{key}` in {context} must be {want}, got {}",
                got.type_name()
            ),
            Invalid::Negative => format!("key `{key}` in {context} must be a non-negative integer"),
            Invalid::TooLarge => format!("key `{key}` in {context} is too large for u32"),
            Invalid::Grammar(message) => message,
        }
    }

    /// The message for an array element described as `what`.
    fn for_elem(self, what: &str, got: &Value) -> String {
        match self {
            Invalid::Type(want) => format!("{what} must be {want}, got {}", got.type_name()),
            Invalid::Negative => format!("{what} must be non-negative"),
            Invalid::TooLarge => format!("{what} is too large"),
            Invalid::Grammar(message) => message,
        }
    }
}

/// A type a scenario value converts to: the one reading behind
/// [`View::opt`], [`View::req`] and [`elem`].
pub(crate) trait FromValue<'a>: Sized {
    /// Converts `value`, or names why it cannot be one.
    fn from_value(value: &'a Value) -> Result<Self, Invalid>;
}

impl<'a> FromValue<'a> for &'a str {
    fn from_value(value: &'a Value) -> Result<Self, Invalid> {
        match value {
            Value::Str(s) => Ok(s),
            _ => Err(Invalid::Type("a string")),
        }
    }
}

/// Integers are accepted and widened.
impl FromValue<'_> for f64 {
    fn from_value(value: &Value) -> Result<Self, Invalid> {
        match *value {
            Value::Float(v) => Ok(v),
            Value::Int(v) => Ok(v as f64),
            _ => Err(Invalid::Type("a number")),
        }
    }
}

impl FromValue<'_> for u64 {
    fn from_value(value: &Value) -> Result<Self, Invalid> {
        match *value {
            Value::Int(v) => u64::try_from(v).map_err(|_| Invalid::Negative),
            _ => Err(Invalid::Type("an integer")),
        }
    }
}

impl FromValue<'_> for u32 {
    fn from_value(value: &Value) -> Result<Self, Invalid> {
        u32::try_from(u64::from_value(value)?).map_err(|_| Invalid::TooLarge)
    }
}

impl FromValue<'_> for bool {
    fn from_value(value: &Value) -> Result<Self, Invalid> {
        match *value {
            Value::Bool(v) => Ok(v),
            _ => Err(Invalid::Type("a boolean")),
        }
    }
}

/// The grammar enums read a string through their `FromStr`, the one
/// grammar the CLI flags share.
macro_rules! from_grammar {
    ($($grammar:ty),*) => {$(
        impl FromValue<'_> for $grammar {
            fn from_value(value: &Value) -> Result<Self, Invalid> {
                <&str>::from_value(value)?.parse().map_err(Invalid::Grammar)
            }
        }
    )*};
}

from_grammar!(
    IntegrationKind,
    AssemblyFlow,
    ReuseScheme,
    ExploreMode,
    ExploreOutput
);

/// A schema-checking lens over one table.
pub(crate) struct View<'a> {
    table: &'a Table,
    /// Human context for messages, e.g. "[nodes.7nm]".
    context: String,
    /// Keys the schema has asked about (accepted keys).
    known: Vec<&'static str>,
}

impl<'a> View<'a> {
    pub(crate) fn new(table: &'a Table, context: impl Into<String>) -> Self {
        View {
            table,
            context: context.into(),
            known: Vec::new(),
        }
    }

    /// Position of the underlying table (its header or first key).
    pub(crate) fn pos(&self) -> Pos {
        self.table.pos
    }

    pub(crate) fn context(&self) -> &str {
        &self.context
    }

    /// Every entry of the table as `(key, key position, table)`, for
    /// schemas whose keys are data (node ids, packaging kinds) rather than
    /// a fixed vocabulary; a non-table entry is an error.
    pub(crate) fn children(&self) -> Result<Vec<(&'a str, Pos, &'a Table)>, ScenarioError> {
        (self.table.entries().iter())
            .map(|entry| match &entry.value {
                Value::Table(t) => Ok((entry.key.as_str(), entry.key_pos, t)),
                other => Err(ScenarioError::schema(
                    entry.key_pos,
                    format!(
                        "entry `{}` of {} must be a table, got {}",
                        entry.key,
                        self.context,
                        other.type_name()
                    ),
                )),
            })
            .collect()
    }

    fn lookup(&mut self, key: &'static str) -> Option<&'a Entry> {
        if !self.known.contains(&key) {
            self.known.push(key);
        }
        self.table.get(key)
    }

    /// The diagnostic for key `key`'s value, which failed for `why`.
    fn invalid(&self, key: &str, entry: &Entry, why: Invalid) -> ScenarioError {
        ScenarioError::schema(
            entry.value_pos,
            why.for_key(key, &self.context, &entry.value),
        )
    }

    fn missing(&self, key: &str) -> ScenarioError {
        ScenarioError::schema(
            self.table.pos,
            format!("missing required key `{key}` in {}", self.context),
        )
    }

    /// Optional key, converted to `T`.
    pub(crate) fn opt<T: FromValue<'a>>(
        &mut self,
        key: &'static str,
    ) -> Result<Option<Spanned<T>>, ScenarioError> {
        let Some(entry) = self.lookup(key) else {
            return Ok(None);
        };
        match T::from_value(&entry.value) {
            Ok(value) => Ok(Some(Spanned {
                value,
                pos: entry.value_pos,
            })),
            Err(why) => Err(self.invalid(key, entry, why)),
        }
    }

    /// Required key, converted to `T`.
    pub(crate) fn req<T: FromValue<'a>>(
        &mut self,
        key: &'static str,
    ) -> Result<Spanned<T>, ScenarioError> {
        self.opt(key)?.ok_or_else(|| self.missing(key))
    }

    /// Optional array, each element converted by `f` (which receives the
    /// element and its position).
    pub(crate) fn opt_array<T>(
        &mut self,
        key: &'static str,
        mut f: impl FnMut(&'a Value, Pos) -> Result<T, ScenarioError>,
    ) -> Result<Option<Vec<T>>, ScenarioError> {
        match self.lookup(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                Value::Array(items) => {
                    let mut out = Vec::with_capacity(items.len());
                    for (value, pos) in items {
                        out.push(f(value, *pos)?);
                    }
                    Ok(Some(out))
                }
                _ => Err(self.invalid(key, e, Invalid::Type("an array"))),
            },
        }
    }

    /// Optional array that must hold at least one entry when given: an
    /// empty one is rejected at its key.
    pub(crate) fn opt_axis<T>(
        &mut self,
        key: &'static str,
        f: impl FnMut(&'a Value, Pos) -> Result<T, ScenarioError>,
    ) -> Result<Option<Vec<T>>, ScenarioError> {
        let list = self.opt_array(key, f)?;
        match (
            list.as_ref().is_some_and(Vec::is_empty),
            self.table.get(key),
        ) {
            (true, Some(entry)) => Err(ScenarioError::schema(
                entry.key_pos,
                format!("`{key}` needs at least one entry"),
            )),
            _ => Ok(list),
        }
    }

    /// Required array.
    pub(crate) fn req_array<T>(
        &mut self,
        key: &'static str,
        f: impl FnMut(&'a Value, Pos) -> Result<T, ScenarioError>,
    ) -> Result<Vec<T>, ScenarioError> {
        self.opt_array(key, f)?.ok_or_else(|| self.missing(key))
    }

    /// Optional sub-table, returned as a child [`View`] whose context
    /// extends this view's bracketed path (`[nodes]` → `[nodes.7nm]`).
    pub(crate) fn opt_table(
        &mut self,
        key: &'static str,
    ) -> Result<Option<View<'a>>, ScenarioError> {
        let child_context = {
            let inner = self.context.trim_start_matches('[').trim_end_matches(']');
            if inner.is_empty() || !self.context.starts_with('[') {
                format!("[{key}]")
            } else {
                format!("[{inner}.{key}]")
            }
        };
        match self.lookup(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                Value::Table(t) => Ok(Some(View::new(t, child_context))),
                _ => Err(self.invalid(key, e, Invalid::Type("a table"))),
            },
        }
    }

    /// Optional array of tables (`[[key]]`).
    pub(crate) fn opt_tables(
        &mut self,
        key: &'static str,
    ) -> Result<Vec<&'a Table>, ScenarioError> {
        match self.lookup(key) {
            None => Ok(Vec::new()),
            Some(e) => match &e.value {
                Value::Tables(tables) => Ok(tables.iter().collect()),
                // A single [key] table is accepted as a one-element list.
                Value::Table(t) => Ok(vec![t]),
                _ => Err(self.invalid(key, e, Invalid::Type("an array of tables"))),
            },
        }
    }

    /// Errors on the first key the schema never asked about, naming its
    /// position and the accepted keys.
    pub(crate) fn deny_unknown(&self) -> Result<(), ScenarioError> {
        for entry in self.table.entries() {
            if !self.known.iter().any(|k| *k == entry.key) {
                let mut accepted: Vec<&str> = self.known.clone();
                accepted.sort_unstable();
                return Err(ScenarioError::schema(
                    entry.key_pos,
                    format!(
                        "unknown key `{}` in {} (accepted: {})",
                        entry.key,
                        self.context,
                        if accepted.is_empty() {
                            "none".to_string()
                        } else {
                            accepted.join(", ")
                        }
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// A value plus the position it came from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Spanned<T> {
    pub value: T,
    pub pos: Pos,
}

/// Converts an array element to `T`; `what` names the element in
/// diagnostics ("an area", "a quantity").
pub(crate) fn elem<'a, T: FromValue<'a>>(
    value: &'a Value,
    pos: Pos,
    what: &str,
) -> Result<T, ScenarioError> {
    T::from_value(value).map_err(|why| ScenarioError::schema(pos, why.for_elem(what, value)))
}
