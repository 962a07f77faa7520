//! The XML tree model for file descriptors.
//!
//! The paper describes files with "semi-structured XML data, as used by many
//! publicly-accessible databases (e.g., DBLP)" (§III-B, Fig. 1). This module
//! provides the element tree those descriptors live in, together with
//! serialization and a *canonical form* that gives structurally-equal
//! descriptors identical text — the property the paper needs so that
//! "equivalent expressions are transformed into a unique normalized format"
//! before hashing.

use std::borrow::Cow;
use std::fmt;

/// A node in an XML tree: an element or a text run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum XmlNode {
    /// A nested element.
    Element(Element),
    /// Character data (entity-decoded).
    Text(String),
}

impl XmlNode {
    /// The element inside this node, if it is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        }
    }

    /// The text inside this node, if it is character data.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            XmlNode::Element(_) => None,
            XmlNode::Text(t) => Some(t),
        }
    }
}

impl From<Element> for XmlNode {
    fn from(e: Element) -> Self {
        XmlNode::Element(e)
    }
}

/// An XML element: a name, optional attributes, and child nodes.
///
/// # Examples
///
/// Building the `<author>` fragment of the paper's Figure 1:
///
/// ```
/// use p2p_index_xmldoc::Element;
///
/// let author = Element::new("author")
///     .with_child(Element::with_text("first", "John"))
///     .with_child(Element::with_text("last", "Smith"));
/// assert_eq!(author.to_xml(), "<author><first>John</first><last>Smith</last></author>");
/// assert_eq!(author.find("last").unwrap().text(), "Smith");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Element {
    name: String,
    attributes: Vec<(String, String)>,
    children: Vec<XmlNode>,
}

impl Element {
    /// Creates an empty element named `name`.
    pub fn new(name: impl Into<String>) -> Element {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Creates `<name>text</name>`.
    pub fn with_text(name: impl Into<String>, text: impl Into<String>) -> Element {
        let mut e = Element::new(name);
        e.children.push(XmlNode::Text(text.into()));
        e
    }

    /// The element's tag name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The element's attributes in document order.
    pub fn attributes(&self) -> &[(String, String)] {
        &self.attributes
    }

    /// Looks up an attribute value by name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// All child nodes in document order.
    pub fn children(&self) -> &[XmlNode] {
        &self.children
    }

    /// Iterates over child *elements* only.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(XmlNode::as_element)
    }

    /// The concatenated direct text content of this element.
    ///
    /// Text is trimmed per-run; `<year> 1996 </year>` yields `"1996"`.
    pub fn text(&self) -> String {
        self.trimmed_text().into_owned()
    }

    /// [`text`](Self::text), borrowed when a single run holds it all — as
    /// it does in every canonicalized descriptor — so that matching a
    /// query against an element compares texts without copying them.
    pub fn trimmed_text(&self) -> Cow<'_, str> {
        let mut runs = self
            .children
            .iter()
            .filter_map(XmlNode::as_text)
            .map(str::trim)
            .filter(|t| !t.is_empty());
        let first = runs.next().unwrap_or("");
        match runs.next() {
            None => Cow::Borrowed(first),
            Some(second) => {
                let mut joined = format!("{first} {second}");
                for run in runs {
                    joined.push(' ');
                    joined.push_str(run);
                }
                Cow::Owned(joined)
            }
        }
    }

    /// First child element named `name`.
    pub fn find(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// All child elements named `name`.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// Resolves a `/`-separated path of element names and returns the text
    /// of the final element.
    ///
    /// ```
    /// use p2p_index_xmldoc::Element;
    ///
    /// let article = Element::new("article")
    ///     .with_child(Element::new("author").with_child(Element::with_text("last", "Smith")));
    /// assert_eq!(article.path_text("author/last").as_deref(), Some("Smith"));
    /// assert_eq!(article.path_text("author/first"), None);
    /// ```
    pub fn path_text(&self, path: &str) -> Option<String> {
        let mut current = self;
        for step in path.split('/').filter(|s| !s.is_empty()) {
            current = current.find(step)?;
        }
        Some(current.text())
    }

    /// Adds an attribute (builder style).
    #[must_use]
    pub fn with_attribute(mut self, name: impl Into<String>, value: impl Into<String>) -> Element {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Adds a child element (builder style).
    #[must_use]
    pub fn with_child(mut self, child: Element) -> Element {
        self.children.push(XmlNode::Element(child));
        self
    }

    /// Adds a text run (builder style).
    #[must_use]
    pub fn with_text_node(mut self, text: impl Into<String>) -> Element {
        self.children.push(XmlNode::Text(text.into()));
        self
    }

    /// Appends a child node in place.
    pub fn push_child(&mut self, child: impl Into<XmlNode>) {
        self.children.push(child.into());
    }

    /// Appends an attribute in place.
    pub fn push_attribute(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.attributes.push((name.into(), value.into()));
    }

    /// Serializes to compact XML (no insignificant whitespace).
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Serializes to indented XML, two spaces per level.
    pub fn to_xml_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_open_tag(&self, out: &mut String, self_close: bool) {
        out.push('<');
        out.push_str(&self.name);
        for (n, v) in &self.attributes {
            out.push(' ');
            out.push_str(n);
            out.push_str("=\"");
            escape_into(v, out);
            out.push('"');
        }
        out.push_str(if self_close { "/>" } else { ">" });
    }

    fn write_compact(&self, out: &mut String) {
        if self.children.is_empty() {
            self.write_open_tag(out, true);
            return;
        }
        self.write_open_tag(out, false);
        for child in &self.children {
            match child {
                XmlNode::Element(e) => e.write_compact(out),
                XmlNode::Text(t) => escape_into(t, out),
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        if self.children.is_empty() {
            self.write_open_tag(out, true);
            return;
        }
        // Text-only elements print on one line.
        if self.children.iter().all(|c| matches!(c, XmlNode::Text(_))) {
            self.write_open_tag(out, false);
            escape_into(&self.text(), out);
            out.push_str("</");
            out.push_str(&self.name);
            out.push('>');
            return;
        }
        self.write_open_tag(out, false);
        for child in &self.children {
            out.push('\n');
            match child {
                XmlNode::Element(e) => e.write_pretty(out, depth + 1),
                XmlNode::Text(t) => {
                    out.push_str(&"  ".repeat(depth + 1));
                    escape_into(t.trim(), out);
                }
            }
        }
        out.push('\n');
        out.push_str(&pad);
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }

    /// Produces the canonical form: attributes sorted by name, child
    /// elements sorted recursively by `(name, canonical text)`, text runs
    /// trimmed and merged.
    ///
    /// Two descriptors that differ only in field order canonicalize to the
    /// same tree, so their serialized forms — and therefore their DHT keys —
    /// coincide. This implements the paper's footnote 1: "equivalent
    /// expressions are transformed into a unique normalized format".
    #[must_use]
    pub fn canonicalize(&self) -> Element {
        let mut attributes = self.attributes.clone();
        attributes.sort();
        let text = self.text();
        let mut elems: Vec<Element> = self.child_elements().map(Element::canonicalize).collect();
        elems.sort_by(|a, b| {
            a.name
                .cmp(&b.name)
                .then_with(|| a.to_xml().cmp(&b.to_xml()))
        });
        let mut children: Vec<XmlNode> = Vec::with_capacity(elems.len() + 1);
        if !text.is_empty() {
            children.push(XmlNode::Text(text));
        }
        children.extend(elems.into_iter().map(XmlNode::Element));
        Element {
            name: self.name.clone(),
            attributes,
            children,
        }
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

/// Escapes the five XML special characters into `out`.
fn escape_into(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
}

/// Escapes XML special characters, returning a new string.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    escape_into(text, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_article() -> Element {
        Element::new("article")
            .with_child(
                Element::new("author")
                    .with_child(Element::with_text("first", "John"))
                    .with_child(Element::with_text("last", "Smith")),
            )
            .with_child(Element::with_text("title", "TCP"))
            .with_child(Element::with_text("conf", "SIGCOMM"))
            .with_child(Element::with_text("year", "1989"))
            .with_child(Element::with_text("size", "315635"))
    }

    #[test]
    fn build_and_navigate() {
        let a = sample_article();
        assert_eq!(a.name(), "article");
        assert_eq!(a.find("title").unwrap().text(), "TCP");
        assert_eq!(a.path_text("author/first").as_deref(), Some("John"));
        assert_eq!(a.path_text("author/middle"), None);
        assert_eq!(a.child_elements().count(), 5);
    }

    #[test]
    fn text_trims_and_joins() {
        let e = Element::new("x")
            .with_text_node("  hello ")
            .with_child(Element::new("sep"))
            .with_text_node(" world  ");
        assert_eq!(e.text(), "hello world");
    }

    #[test]
    fn empty_element_self_closes() {
        assert_eq!(Element::new("empty").to_xml(), "<empty/>");
    }

    #[test]
    fn attributes_render_and_lookup() {
        let e = Element::new("article")
            .with_attribute("key", "journals/x/1")
            .with_attribute("mdate", "2003-01-21");
        assert_eq!(e.attribute("key"), Some("journals/x/1"));
        assert_eq!(e.attribute("missing"), None);
        assert_eq!(
            e.to_xml(),
            r#"<article key="journals/x/1" mdate="2003-01-21"/>"#
        );
    }

    #[test]
    fn escaping_special_characters() {
        let e = Element::with_text("t", "a<b & \"c\" > 'd'");
        assert_eq!(
            e.to_xml(),
            "<t>a&lt;b &amp; &quot;c&quot; &gt; &apos;d&apos;</t>"
        );
        assert_eq!(escape("&"), "&amp;");
    }

    #[test]
    fn pretty_print_shape() {
        let a = Element::new("article").with_child(Element::with_text("title", "TCP"));
        assert_eq!(
            a.to_xml_pretty(),
            "<article>\n  <title>TCP</title>\n</article>\n"
        );
    }

    #[test]
    fn canonicalize_sorts_fields() {
        let scrambled = Element::new("article")
            .with_child(Element::with_text("year", "1989"))
            .with_child(Element::with_text("title", "TCP"))
            .with_child(
                Element::new("author")
                    .with_child(Element::with_text("last", "Smith"))
                    .with_child(Element::with_text("first", "John")),
            );
        let ordered = Element::new("article")
            .with_child(
                Element::new("author")
                    .with_child(Element::with_text("first", "John"))
                    .with_child(Element::with_text("last", "Smith")),
            )
            .with_child(Element::with_text("title", "TCP"))
            .with_child(Element::with_text("year", "1989"));
        assert_eq!(scrambled.canonicalize(), ordered.canonicalize());
        assert_eq!(
            scrambled.canonicalize().to_xml(),
            ordered.canonicalize().to_xml()
        );
    }

    #[test]
    fn canonicalize_orders_same_name_siblings_deterministically() {
        let a = Element::new("authors")
            .with_child(Element::with_text("author", "Zoe"))
            .with_child(Element::with_text("author", "Anna"));
        let b = Element::new("authors")
            .with_child(Element::with_text("author", "Anna"))
            .with_child(Element::with_text("author", "Zoe"));
        assert_eq!(a.canonicalize(), b.canonicalize());
    }

    #[test]
    fn canonicalize_is_idempotent() {
        let c1 = sample_article().canonicalize();
        let c2 = c1.canonicalize();
        assert_eq!(c1, c2);
    }

    #[test]
    fn display_matches_to_xml() {
        let a = sample_article();
        assert_eq!(a.to_string(), a.to_xml());
    }

    #[test]
    fn node_accessors() {
        let e = XmlNode::Element(Element::new("x"));
        let t = XmlNode::Text("hi".into());
        assert!(e.as_element().is_some());
        assert!(e.as_text().is_none());
        assert_eq!(t.as_text(), Some("hi"));
        assert!(t.as_element().is_none());
    }
}
