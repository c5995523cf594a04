//! The pull tokenizer: the one XML parser in this crate.
//!
//! A [`Reader`] walks a document and yields [`Event`]s — a start tag, a
//! run of character data, an end tag — without building anything.
//! Names are slices of the input, and text is a `Cow` that owns a
//! buffer only when an entity escape fired. [`crate::parse_ref`] is a
//! small tree builder on top; streaming decoders (the SOAP envelope
//! decoder) read the events directly and build only what they keep.
//!
//! Every event is checked as it is produced, so a consumer that reads
//! to the end ([`Reader::finish`]) has validated the whole document,
//! and gets the same [`ParseError`] — kind and byte offset — that the
//! tree builder would.

use crate::escape::unescape_cow;
use crate::parser::{ErrorKind, ParseError};
use std::borrow::Cow;

/// One step through a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// An element opens. A self-closing tag yields `Start` then `End`.
    Start(StartTag<'a>),
    /// One run of character data: the text between two pieces of
    /// markup (already unescaped), or one CDATA section (verbatim,
    /// possibly empty).
    Text(Cow<'a, str>),
    /// An element closes; carries its name.
    End(&'a str),
}

/// A start tag: the element's name and its (already validated)
/// attributes, both borrowed from the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartTag<'a> {
    /// Tag name (may carry a namespace prefix like `SOAP-ENV:Body`).
    pub name: &'a str,
    /// The attribute list as written, between the name and the `>`.
    attrs: &'a str,
}

impl<'a> StartTag<'a> {
    /// The element's local name: the part after the namespace prefix.
    pub fn local_name(&self) -> &'a str {
        local_name(self.name)
    }

    /// The attributes in document order, values unescaped.
    pub fn attrs(&self) -> impl Iterator<Item = (&'a str, Cow<'a, str>)> {
        let span = self.attrs;
        let mut i = 0;
        std::iter::from_fn(move || {
            // The reader validated this span when it produced the tag,
            // so every attribute here is `name ws? = ws? quoted-value`.
            let key_at = skip_ws(span, i);
            if key_at == span.len() {
                return None;
            }
            let key_end = name_end(span, key_at);
            let quote_at = skip_ws(span, skip_ws(span, key_end) + 1);
            let quote = span.as_bytes()[quote_at];
            let value_at = quote_at + 1;
            let value_end = value_at + span[value_at..].find(char::from(quote))?;
            i = value_end + 1;
            Some((
                &span[key_at..key_end],
                unescape_cow(&span[value_at..value_end]),
            ))
        })
    }
}

/// The local part of a possibly prefixed name.
pub(crate) fn local_name(name: &str) -> &str {
    match name.bytes().position(|b| b == b':') {
        Some(colon) => &name[colon + 1..],
        None => name,
    }
}

/// True for a text run that is only indentation. Such runs are dropped
/// from elements that have element children; in a leaf element they
/// are character data (a SOAP string value may be `" "`).
pub(crate) fn is_indentation(text: &str) -> bool {
    text.trim().is_empty()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Before the root element.
    Prologue,
    /// Inside the root element (or right after its start).
    Content,
    /// A self-closing tag was just reported; its `End` is next.
    SelfClosed,
    /// The root has closed and the rest of the document was checked.
    Done,
}

/// A pull tokenizer over one document. See the [module docs](self).
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    state: State,
    /// Names of the open elements, outermost first.
    open: Vec<&'a str>,
    /// The name of a self-closing element whose `End` is pending.
    closing: &'a str,
    /// The first error; once set, every later call returns it.
    failed: Option<ParseError>,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the document's prologue.
    pub fn new(input: &'a str) -> Reader<'a> {
        Reader {
            input,
            pos: 0,
            state: State::Prologue,
            open: Vec::new(),
            closing: "",
            failed: None,
        }
    }

    /// How many elements are open: one more after each `Start`, one
    /// fewer after each `End`.
    #[inline]
    pub fn depth(&self) -> usize {
        self.open.len() + usize::from(self.state == State::SelfClosed)
    }

    /// The next event, or `None` once the root element has closed and
    /// everything after it (whitespace, comments, processing
    /// instructions) has been checked.
    #[inline]
    pub fn next_event(&mut self) -> Result<Option<Event<'a>>, ParseError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        let event = self.step();
        if let Err(e) = event {
            self.failed = Some(e);
        }
        event
    }

    /// The start tag of the next child element of the innermost open
    /// element, skipping text; `None` once that element's end tag has
    /// been read.
    #[inline]
    pub fn next_child(&mut self) -> Result<Option<StartTag<'a>>, ParseError> {
        loop {
            match self.next_event()? {
                Some(Event::Start(tag)) => return Ok(Some(tag)),
                Some(Event::Text(_)) => {}
                Some(Event::End(_)) | None => return Ok(None),
            }
        }
    }

    /// Reads events until [`Reader::depth`] is back down to `depth`.
    pub fn skip_to(&mut self, depth: usize) -> Result<(), ParseError> {
        while self.depth() > depth {
            self.next_event()?;
        }
        Ok(())
    }

    /// Skips the rest of the innermost open element, through its end
    /// tag. Called right after a `Start`, it skips that element.
    pub fn skip_element(&mut self) -> Result<(), ParseError> {
        self.skip_to(self.depth().saturating_sub(1))
    }

    /// Reads the rest of the innermost open element, through its end
    /// tag, and returns its character data: the element's own text
    /// runs, concatenated, with nested elements skipped. When the
    /// element has element children, whitespace-only runs are
    /// indentation and are dropped, as in the tree. Borrows when at
    /// most one run is kept.
    pub fn read_text(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let depth = self.depth();
        let mut first = None;
        let mut more = Vec::new();
        let mut nested = false;
        loop {
            match self.next_event()? {
                Some(Event::Text(t)) if first.is_none() => first = Some(t),
                Some(Event::Text(t)) => more.push(t),
                Some(Event::Start(_)) => {
                    nested = true;
                    self.skip_to(depth)?;
                }
                Some(Event::End(_)) | None => break,
            }
        }
        let mut runs = first
            .into_iter()
            .chain(more)
            .filter(|t| !(nested && is_indentation(t)));
        let Some(first) = runs.next() else {
            return Ok(Cow::Borrowed(""));
        };
        Ok(match runs.next() {
            None => first,
            Some(second) => {
                let mut s = first.into_owned();
                s.push_str(&second);
                runs.for_each(|t| s.push_str(&t));
                Cow::Owned(s)
            }
        })
    }

    /// Reads the rest of the document, checking it to its end.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        while self.next_event()?.is_some() {}
        Ok(())
    }

    #[inline]
    fn err(&self, kind: ErrorKind) -> ParseError {
        ParseError { at: self.pos, kind }
    }

    #[inline]
    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    #[inline]
    fn skip_ws(&mut self) {
        self.pos = skip_ws(self.input, self.pos);
    }

    /// Skips past the next `end`, searching from the current position
    /// (so `<!-->` is a whole comment, as `-->` overlaps its opener).
    fn skip_until(&mut self, end: &str, what: ErrorKind) -> Result<(), ParseError> {
        match self.rest().find(end) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(self.err(what)),
        }
    }

    /// Skips whitespace, comments, processing instructions and DOCTYPE
    /// outside the root. An unterminated one consumes the rest of the
    /// input: before the root, "expected '<'" then reports the problem.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            let skipped = if self.starts_with("<?") {
                self.skip_until("?>", ErrorKind::UnterminatedPi)
            } else if self.starts_with("<!--") {
                self.skip_until("-->", ErrorKind::UnterminatedComment)
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_until(">", ErrorKind::UnterminatedDoctype)
            } else {
                return;
            };
            if skipped.is_err() {
                self.pos = self.input.len();
                return;
            }
        }
    }

    #[inline]
    fn name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        let end = name_end(self.input, start);
        if end == start {
            return Err(self.err(ErrorKind::ExpectedName));
        }
        self.pos = end;
        Ok(&self.input[start..end])
    }

    #[inline]
    fn step(&mut self) -> Result<Option<Event<'a>>, ParseError> {
        match self.state {
            State::Prologue => {
                self.skip_misc();
                if !self.starts_with("<") {
                    return Err(self.err(ErrorKind::ExpectedElement));
                }
                self.state = State::Content;
                self.start_tag().map(Some)
            }
            State::SelfClosed => {
                self.state = State::Content;
                Ok(Some(Event::End(self.closing)))
            }
            State::Content if self.open.is_empty() => {
                self.skip_misc();
                if self.pos < self.input.len() {
                    return Err(self.err(ErrorKind::TrailingContent));
                }
                self.state = State::Done;
                Ok(None)
            }
            State::Content => self.content().map(Some),
            State::Done => Ok(None),
        }
    }

    /// The next event inside an open element.
    #[inline]
    fn content(&mut self) -> Result<Event<'a>, ParseError> {
        loop {
            let rest = self.rest();
            match rest.as_bytes() {
                [] => return Err(self.err(ErrorKind::UnexpectedEof)),
                [b'<', b'/', ..] => return self.end_tag(),
                [b'<', b'!', b'-', b'-', ..] => {
                    self.skip_until("-->", ErrorKind::UnterminatedComment)?;
                }
                [b'<', b'!', ..] if rest.starts_with("<![CDATA[") => {
                    self.pos += "<![CDATA[".len();
                    let rest = self.rest();
                    let end = rest
                        .find("]]>")
                        .ok_or_else(|| self.err(ErrorKind::UnterminatedCdata))?;
                    self.pos += end + 3;
                    return Ok(Event::Text(Cow::Borrowed(&rest[..end])));
                }
                [b'<', b'?', ..] => self.skip_until("?>", ErrorKind::UnterminatedPi)?,
                [b'<', ..] => return self.start_tag(),
                _ => {
                    let end = rest.find('<').unwrap_or(rest.len());
                    self.pos += end;
                    return Ok(Event::Text(unescape_cow(&rest[..end])));
                }
            }
        }
    }

    /// Reads an end tag at `</`, which must close the innermost element.
    fn end_tag(&mut self) -> Result<Event<'a>, ParseError> {
        self.pos += 2;
        let open = *self.open.last().expect("content is read inside an element");
        let after = self.input.as_bytes()[self.pos..].strip_prefix(open.as_bytes());
        // A well-formed end tag repeats the open name (and not the
        // start of a longer one), so that is checked without a name
        // scan. Anything else takes the scan, which finds where a
        // wrong name ends for the error offset.
        let ends_there = |rest: &[u8]| {
            rest.first()
                .is_none_or(|&b| b.is_ascii() && !is_name_byte(b))
        };
        let name = if after.is_some_and(ends_there) {
            self.pos += open.len();
            open
        } else {
            let name = self.name()?;
            if name != open {
                return Err(self.err(ErrorKind::MismatchedCloseTag));
            }
            name
        };
        self.skip_ws();
        if !self.rest().starts_with('>') {
            return Err(self.err(ErrorKind::ExpectedCloseAngle));
        }
        self.pos += 1;
        self.open.pop();
        Ok(Event::End(name))
    }

    /// Reads a start tag at `<`, checking every attribute.
    fn start_tag(&mut self) -> Result<Event<'a>, ParseError> {
        let bytes = self.input.as_bytes();
        self.pos += 1;
        let name = self.name()?;
        let attrs_from = self.pos;
        loop {
            self.skip_ws();
            let tag = StartTag {
                name,
                attrs: &self.input[attrs_from..self.pos],
            };
            match bytes.get(self.pos..self.pos + 2) {
                Some(b"/>") => {
                    self.pos += 2;
                    self.state = State::SelfClosed;
                    self.closing = name;
                    return Ok(Event::Start(tag));
                }
                _ if bytes.get(self.pos) == Some(&b'>') => {
                    self.pos += 1;
                    self.open.push(name);
                    return Ok(Event::Start(tag));
                }
                _ => {}
            }
            self.name()?;
            self.skip_ws();
            if bytes.get(self.pos) != Some(&b'=') {
                return Err(self.err(ErrorKind::AttrMissingEq));
            }
            self.pos += 1;
            self.skip_ws();
            let quote = match bytes.get(self.pos) {
                Some(&q @ (b'"' | b'\'')) => q,
                _ => return Err(self.err(ErrorKind::AttrValueUnquoted)),
            };
            self.pos += 1;
            let end = self
                .rest()
                .find(char::from(quote))
                .ok_or_else(|| self.err(ErrorKind::UnterminatedAttrValue))?;
            self.pos += end + 1;
        }
    }
}

/// The offset of the first non-whitespace char in `s` at or after `i`
/// (Unicode `White_Space`, as `str::trim_start` counts it), with a fast
/// exit for the common case of none.
#[inline]
fn skip_ws(s: &str, i: usize) -> usize {
    match s.as_bytes().get(i) {
        Some(&b) if b.is_ascii() && !is_ascii_space(b) => i,
        None => i,
        _ => s.len() - s[i..].trim_start().len(),
    }
}

/// The ASCII bytes `char::is_whitespace` accepts (which, unlike
/// `u8::is_ascii_whitespace`, include vertical tab).
#[inline]
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r')
}

/// The end of the name that starts at offset `i` of `s` (`i` itself if
/// none does): alphanumerics (any script) and `:`, `_`, `-`, `.`.
#[inline]
fn name_end(s: &str, i: usize) -> usize {
    let bytes = s.as_bytes();
    let ascii_run = |from: usize| {
        let run = bytes[from..].iter().position(|&b| !is_name_byte(b));
        from + run.unwrap_or(bytes.len() - from)
    };
    let mut end = ascii_run(i);
    while bytes.get(end).is_some_and(|b| !b.is_ascii()) {
        let c = s[end..].chars().next().expect("a char starts here");
        if !c.is_alphanumeric() {
            break;
        }
        end = ascii_run(end + c.len_utf8());
    }
    end
}

/// True for the ASCII bytes a name may hold.
#[inline]
fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b':' | b'_' | b'-' | b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(doc: &str) -> Result<Vec<Event<'_>>, ParseError> {
        let mut r = Reader::new(doc);
        let mut out = Vec::new();
        while let Some(e) = r.next_event()? {
            out.push(e);
        }
        Ok(out)
    }

    fn start(name: &str) -> Event<'_> {
        Event::Start(StartTag { name, attrs: "" })
    }

    #[test]
    fn yields_start_text_and_end_events() {
        let got =
            events("<?xml version=\"1.0\"?><a><b>hi &amp; bye</b><c/><![CDATA[]]></a>").unwrap();
        assert_eq!(
            got,
            vec![
                start("a"),
                start("b"),
                Event::Text(Cow::Owned("hi & bye".into())),
                Event::End("b"),
                start("c"),
                Event::End("c"),
                Event::Text(Cow::Borrowed("")),
                Event::End("a"),
            ]
        );
    }

    #[test]
    fn attributes_are_borrowed_and_unescaped_on_demand() {
        let mut r = Reader::new("<a k='v' q = \"x&lt;y\" xsi:nil=\"true\"/>");
        let Some(Event::Start(tag)) = r.next_event().unwrap() else {
            panic!("start tag expected");
        };
        let attrs: Vec<_> = tag.attrs().collect();
        assert_eq!(
            attrs,
            vec![
                ("k", Cow::Borrowed("v")),
                ("q", Cow::Owned("x<y".into())),
                ("xsi:nil", Cow::Borrowed("true")),
            ]
        );
        assert_eq!(r.depth(), 1);
        assert_eq!(r.next_event().unwrap(), Some(Event::End("a")));
        assert_eq!(r.depth(), 0);
        assert_eq!(r.next_event().unwrap(), None);
    }

    #[test]
    fn read_text_follows_the_tree_rules() {
        for (doc, want) in [
            ("<a> </a>", " "),
            ("<a> <b/> x </a>", " x "),
            ("<a>\n  <b>skipped</b>\n</a>", ""),
            ("<a>4<b/>2</a>", "42"),
            ("<a>x<!-- c -->y<![CDATA[<z>]]></a>", "xy<z>"),
            ("<a/>", ""),
        ] {
            let mut r = Reader::new(doc);
            r.next_event().unwrap();
            assert_eq!(r.read_text().unwrap(), want, "{doc:?}");
            assert_eq!(r.depth(), 0, "{doc:?}");
            r.finish().unwrap();
        }
    }

    #[test]
    fn skipping_still_validates() {
        let mut r = Reader::new("<a><b><c>x</c></b><d/></a>");
        r.next_event().unwrap();
        r.next_event().unwrap();
        r.skip_element().unwrap();
        assert_eq!(r.next_event().unwrap(), Some(start("d")));
        r.finish().unwrap();

        let mut r = Reader::new("<a><b><c></b></a>");
        r.next_event().unwrap();
        r.next_event().unwrap();
        assert_eq!(
            r.skip_element().unwrap_err().kind,
            ErrorKind::MismatchedCloseTag
        );
        // The error is sticky.
        assert_eq!(
            r.next_event().unwrap_err().kind,
            ErrorKind::MismatchedCloseTag
        );
    }

    #[test]
    fn end_tags_match_the_whole_name() {
        for (doc, want) in [
            ("<a></a >", Ok(())),
            ("<aé></aé>", Ok(())),
            ("<a></ab>", Err((ErrorKind::MismatchedCloseTag, 7))),
            ("<ab></a>", Err((ErrorKind::MismatchedCloseTag, 7))),
            ("<a></aé>", Err((ErrorKind::MismatchedCloseTag, 8))),
            ("<a></a", Err((ErrorKind::ExpectedCloseAngle, 6))),
            ("<a></>", Err((ErrorKind::ExpectedName, 5))),
        ] {
            let got = events(doc).map(drop).map_err(|e| (e.kind, e.at));
            assert_eq!(got, want, "{doc:?}");
        }
    }

    #[test]
    fn deep_documents_nest_and_mismatch() {
        let depth = 48;
        let doc = format!("{}{}", "<n>".repeat(depth), "</n>".repeat(depth));
        assert_eq!(events(&doc).unwrap().len(), depth * 2);
        let bad = format!("{}</m>", "<n>".repeat(depth));
        assert_eq!(
            events(&bad).unwrap_err().kind,
            ErrorKind::MismatchedCloseTag
        );
    }

    #[test]
    fn names_and_whitespace_cover_unicode() {
        assert_eq!(name_end("é-1.x:y z", 0), "é-1.x:y".len());
        assert_eq!(name_end("a!x", 1), 1);
        assert_eq!(
            skip_ws("\u{b}\u{a0}\u{3000} x", 0),
            "\u{b}\u{a0}\u{3000} ".len()
        );
        assert_eq!(skip_ws("x ", 0), 0);
        assert_eq!(skip_ws("x ", 1), 2);
        let got = events("<é\u{a0}a='1'\u{85}/>").unwrap();
        assert_eq!(got.len(), 2);
    }
}
