//! One registry type for every string-keyed sweep axis: refresh policies,
//! workloads, devices, controller plugins and probes.
//!
//! Each axis is declared once, as data: an [`Axis`] names the axis, lists
//! its registered handles and its dynamic [`Form`]s (a grammar such as
//! `hira<N>`, a one-line summary, an example and a parser). Everything that
//! reads an axis reads that declaration: [`Registry::lookup`] (exact names
//! first, then the forms in order), [`Registry::resolve`] and its one
//! [`UnknownName`] error, [`Registry::axis`] for a sweep axis of names, and
//! [`Registry::list`] for a binary's `--list` output.
//!
//! ```
//! use hira_engine::registry::{numeral, Form, Registry};
//!
//! #[derive(Clone, Debug)]
//! struct Speed(String);
//!
//! impl Speed {
//!     fn name(&self) -> &str {
//!         &self.0
//!     }
//!     fn summary(&self) -> &str {
//!         "a speed"
//!     }
//! }
//!
//! hira_engine::axis!(
//!     Speed,
//!     "speed",
//!     || vec![Speed("slow".into())],
//!     &[Form {
//!         grammar: "x<N>",
//!         summary: "N times as fast",
//!         example: "x4",
//!         parse: |name| Some(Speed(format!("x{}", numeral(name, "x")?))),
//!     }],
//!     None,
//! );
//!
//! let speeds = Registry::<Speed>::shared();
//! assert_eq!(speeds.lookup("x4").unwrap().0, "x4");
//! assert!(speeds.lookup("x04").is_none(), "numerals are canonical");
//! assert_eq!(speeds.resolve("fast").unwrap_err().to_string(), "unknown speed `fast`");
//! ```

use std::fmt::{self, Write as _};
use std::sync::OnceLock;

/// A value one sweep axis selects by name. The name is the identity: a
/// dynamic form's parser returns a handle whose name is the canonical
/// spelling of what it parsed.
pub trait Handle: Clone + Send + Sync + 'static {
    /// The declaration of the axis this handle type belongs to.
    fn axis() -> &'static Axis<Self>;
    /// The handle's registry name.
    fn name(&self) -> &str;
    /// One-line description for `--list`.
    fn summary(&self) -> &str;
}

/// A dynamic form of an axis: names that carry their parameters, such as
/// `hira<N>` or `oracle:<tRH>`.
pub struct Form<H> {
    /// The grammar, as listings print it.
    pub grammar: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// A name of this form that resolves.
    pub example: &'static str,
    /// The handle `name` selects, or `None` when `name` is not of this
    /// form or its parameter is out of range.
    pub parse: fn(&str) -> Option<H>,
}

/// Declares the axis handle type `$handle` belongs to, from the arguments
/// of [`Axis::new`], and implements [`Handle`] for it through the type's
/// own `name` and `summary` methods: one registration per axis, read by
/// every [`Registry`] of that handle type.
#[macro_export]
macro_rules! axis {
    ($handle:ty, $($declaration:expr),+ $(,)?) => {
        impl $crate::Handle for $handle {
            fn axis() -> &'static $crate::registry::Axis<Self> {
                static AXIS: $crate::registry::Axis<$handle> =
                    $crate::registry::Axis::new($($declaration),+);
                &AXIS
            }

            fn name(&self) -> &str {
                <$handle>::name(self)
            }

            fn summary(&self) -> &str {
                <$handle>::summary(self)
            }
        }
    };
}

/// One sweep axis, declared once (through [`axis!`](crate::axis)).
pub struct Axis<H: 'static> {
    name: &'static str,
    standard: fn() -> Vec<H>,
    forms: &'static [Form<H>],
    none: Option<&'static str>,
    shared: OnceLock<Registry<H>>,
}

impl<H: Handle> Axis<H> {
    /// Declares axis `name` (as messages and `--list` print it, and as its
    /// `--<name>=` flag spells it): `standard` makes its registered
    /// handles, in presentation order, and `forms` are tried in order
    /// after the exact names. `none`, when set, is the summary of the
    /// value `none`, which selects no handle.
    pub const fn new(
        name: &'static str,
        standard: fn() -> Vec<H>,
        forms: &'static [Form<H>],
        none: Option<&'static str>,
    ) -> Self {
        Axis {
            name,
            standard,
            forms,
            none,
            shared: OnceLock::new(),
        }
    }
}

/// A name that resolves to no handle of an axis: neither a registered
/// name nor an accepted spelling of one of its forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownName {
    /// The axis (`policy`, `workload`, `device`, `plugin`, `probe`).
    pub axis: &'static str,
    /// The name as given.
    pub name: String,
}

impl fmt::Display for UnknownName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown {} `{}`", self.axis, self.name)
    }
}

impl std::error::Error for UnknownName {}

/// The ordered, string-keyed handles of one axis plus its dynamic forms.
/// Order is registration order, so sweeps and listings present handles as
/// they were registered.
#[derive(Clone)]
pub struct Registry<H: 'static> {
    axis: &'static Axis<H>,
    entries: Vec<H>,
}

impl<H: Handle> Default for Registry<H> {
    /// No registered handles; the axis's forms still resolve.
    fn default() -> Self {
        Registry {
            axis: H::axis(),
            entries: Vec::new(),
        }
    }
}

impl<H: Handle> Registry<H> {
    /// The axis's standard handles, as a registry of one's own to extend.
    pub fn standard() -> Self {
        Self::shared().clone()
    }

    /// The standard registry, built once per process.
    pub fn shared() -> &'static Self {
        let axis = H::axis();
        axis.shared.get_or_init(|| Registry {
            axis,
            entries: (axis.standard)(),
        })
    }

    /// Registers a handle, replacing a registered one of the same name.
    pub fn register(&mut self, handle: H) {
        match self.entries.iter_mut().find(|h| h.name() == handle.name()) {
            Some(existing) => *existing = handle,
            None => self.entries.push(handle),
        }
    }

    /// Resolves a name: a registered name first, then each form in order.
    pub fn lookup(&self, name: &str) -> Option<H> {
        self.entries
            .iter()
            .find(|h| h.name() == name)
            .cloned()
            .or_else(|| self.axis.forms.iter().find_map(|f| (f.parse)(name)))
    }

    /// [`lookup`](Self::lookup), or the axis's [`UnknownName`].
    ///
    /// # Errors
    ///
    /// When `name` resolves to no handle.
    pub fn resolve(&self, name: &str) -> Result<H, UnknownName> {
        self.lookup(name).ok_or_else(|| UnknownName {
            axis: self.axis.name,
            name: name.to_owned(),
        })
    }

    /// Resolves the values of a sweep axis, each labelled by its handle's
    /// canonical name, so two spellings of one handle share a label. The
    /// axis's `none` value resolves to `None`, labelled `none`.
    ///
    /// # Errors
    ///
    /// The first name that resolves to no handle.
    pub fn axis<S: AsRef<str>>(
        &self,
        names: &[S],
    ) -> Result<Vec<(String, Option<H>)>, UnknownName> {
        names
            .iter()
            .map(|name| match name.as_ref() {
                "none" if self.axis.none.is_some() => Ok(("none".to_owned(), None)),
                name => self.resolve(name).map(|h| (h.name().to_owned(), Some(h))),
            })
            .collect()
    }

    /// The axis name.
    pub fn axis_name(&self) -> &'static str {
        self.axis.name
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(H::name).collect()
    }

    /// Registered handles, in registration order.
    pub fn handles(&self) -> impl Iterator<Item = &H> {
        self.entries.iter()
    }

    /// The axis's dynamic forms, in lookup order.
    pub fn forms(&self) -> &'static [Form<H>] {
        self.axis.forms
    }

    /// One handle of everything the axis can select: every registered
    /// handle, then the handle each form's example names (an example that
    /// does not resolve here, such as a relative trace path, is left out).
    pub fn samples(&self) -> Vec<H> {
        let examples = self.axis.forms.iter().filter_map(|f| (f.parse)(f.example));
        self.entries.iter().cloned().chain(examples).collect()
    }

    /// Number of registered handles.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no handle is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The axis's `--list` block: a heading, then every registered
    /// handle, every form with its example, and `none`, one per line.
    pub fn list(&self) -> String {
        let handles = self
            .entries
            .iter()
            .map(|h| (h.name(), h.summary().to_owned()));
        let forms = self.axis.forms.iter().map(|f| {
            let summary = format!("{} (e.g. {})", f.summary, f.example);
            (f.grammar, summary)
        });
        let none = self.axis.none.map(|summary| ("none", summary.to_owned()));
        let rows: Vec<_> = handles.chain(forms).chain(none).collect();
        let width = rows.iter().map(|(name, _)| name.len()).max().unwrap_or(0);
        let mut out = format!("{0} (--{0}=<name>[,<name>...]):\n", self.axis.name);
        for (name, summary) in rows {
            let _ = writeln!(out, "  {name:<width$}  {summary}");
        }
        out
    }
}

/// Resolves `name` against the standard registry of its axis: the
/// shortcut for command-line use, where an unknown name is a usage error.
///
/// # Panics
///
/// With the axis's [`UnknownName`] message when `name` does not resolve.
pub fn named<H: Handle>(name: &str) -> H {
    Registry::<H>::shared()
        .resolve(name)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The numeral after `prefix` in `name`, only when spelled canonically
/// (`rw50`, not `rw050` or `rw+50`): a parsed handle's name must render
/// back identical to the requested name, or two spellings of one handle
/// would key two cells.
pub fn numeral(name: &str, prefix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?;
    let n: u64 = digits.parse().ok()?;
    (n.to_string() == digits).then_some(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Toy(String);

    impl Toy {
        fn name(&self) -> &str {
            &self.0
        }
        fn summary(&self) -> &str {
            "toy"
        }
    }

    crate::axis!(
        Toy,
        "toy",
        || vec![Toy("a".into()), Toy("b7".into())],
        &[Form {
            grammar: "b<N>",
            summary: "the b-th toy",
            example: "b3",
            parse: |name| numeral(name, "b").map(|n| Toy(format!("b{n}"))),
        }],
        Some("no toy"),
    );

    #[test]
    fn exact_names_resolve_before_forms_and_numerals_are_canonical() {
        let mut r = Registry::<Toy>::standard();
        assert_eq!(r.names(), ["a", "b7"]);
        assert_eq!(r.lookup("b3"), Some(Toy("b3".into())));
        for bad in ["b03", "b+3", "b", "c"] {
            assert_eq!(r.lookup(bad), None, "{bad}");
        }
        r.register(Toy("b3".into()));
        r.register(Toy("b3".into()));
        assert_eq!(r.len(), 3, "registering replaces by name");
        assert_eq!(
            r.resolve("c"),
            Err(UnknownName {
                axis: "toy",
                name: "c".into()
            })
        );
    }

    #[test]
    fn axes_label_by_canonical_name_and_accept_declared_none() {
        let r = Registry::<Toy>::shared();
        let axis = r.axis(&["none", "a", "b2"]).unwrap();
        let labels: Vec<&str> = axis.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["none", "a", "b2"]);
        assert!(axis[0].1.is_none());
        assert_eq!(r.axis(&["a", "b02"]).unwrap_err().name, "b02");
    }

    #[test]
    fn the_listing_names_every_handle_form_and_none() {
        let list = Registry::<Toy>::shared().list();
        assert!(list.starts_with("toy (--toy=<name>[,<name>...]):\n"));
        for needle in ["  a ", "  b7 ", "  b<N> ", "(e.g. b3)", "  none ", "no toy"] {
            assert!(list.contains(needle), "{needle:?} missing from\n{list}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown toy `zz`")]
    fn the_shortcut_panics_with_the_typed_message() {
        let _: Toy = named("zz");
    }
}
