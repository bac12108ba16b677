//! Serde smoke test: the survey model's derives serialize end to end.
//! (serde_json is not in the offline crate set, so this drives the
//! `Serialize` impl with a minimal hand-rolled JSON backend.)

use ceres_survey::{generate, Respondent};
use serde::ser::{self, Serialize};

fn to_json<T: Serialize>(value: &T) -> String {
    let mut out = String::new();
    value.serialize(Ser { out: &mut out }).unwrap();
    out
}

struct Ser<'a> {
    out: &'a mut String,
}

#[derive(Debug)]
struct Error(String);
impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}
impl std::error::Error for Error {}
impl ser::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

macro_rules! simple {
    ($name:ident, $ty:ty) => {
        fn $name(self, v: $ty) -> Result<(), Error> {
            self.out.push_str(&v.to_string());
            Ok(())
        }
    };
}

impl<'a> ser::Serializer for Ser<'a> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = SeqSer<'a>;
    type SerializeTuple = SeqSer<'a>;
    type SerializeTupleStruct = SeqSer<'a>;
    type SerializeTupleVariant = SeqSer<'a>;
    type SerializeMap = SeqSer<'a>;
    type SerializeStruct = SeqSer<'a>;
    type SerializeStructVariant = SeqSer<'a>;

    simple!(serialize_bool, bool);
    simple!(serialize_i8, i8);
    simple!(serialize_i16, i16);
    simple!(serialize_i32, i32);
    simple!(serialize_i64, i64);
    simple!(serialize_u8, u8);
    simple!(serialize_u16, u16);
    simple!(serialize_u32, u32);
    simple!(serialize_u64, u64);
    simple!(serialize_f32, f32);
    simple!(serialize_f64, f64);

    fn serialize_char(self, v: char) -> Result<(), Error> {
        self.serialize_str(&v.to_string())
    }
    fn serialize_str(self, v: &str) -> Result<(), Error> {
        self.out.push('"');
        self.out.push_str(&v.replace('"', "\\\""));
        self.out.push('"');
        Ok(())
    }
    fn serialize_bytes(self, _v: &[u8]) -> Result<(), Error> {
        Ok(())
    }
    fn serialize_none(self) -> Result<(), Error> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), Error> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), Error> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), Error> {
        self.serialize_unit()
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _idx: u32,
        variant: &'static str,
    ) -> Result<(), Error> {
        self.serialize_str(variant)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _idx: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        value.serialize(self)
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<SeqSer<'a>, Error> {
        self.out.push('[');
        Ok(SeqSer {
            out: self.out,
            first: true,
            close: ']',
        })
    }
    fn serialize_tuple(self, len: usize) -> Result<SeqSer<'a>, Error> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_struct(self, _name: &'static str, len: usize) -> Result<SeqSer<'a>, Error> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_variant(
        self,
        _n: &'static str,
        _i: u32,
        _v: &'static str,
        len: usize,
    ) -> Result<SeqSer<'a>, Error> {
        self.serialize_seq(Some(len))
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<SeqSer<'a>, Error> {
        self.out.push('{');
        Ok(SeqSer {
            out: self.out,
            first: true,
            close: '}',
        })
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<SeqSer<'a>, Error> {
        self.out.push('{');
        Ok(SeqSer {
            out: self.out,
            first: true,
            close: '}',
        })
    }
    fn serialize_struct_variant(
        self,
        _n: &'static str,
        _i: u32,
        _v: &'static str,
        _len: usize,
    ) -> Result<SeqSer<'a>, Error> {
        self.out.push('{');
        Ok(SeqSer {
            out: self.out,
            first: true,
            close: '}',
        })
    }
}

struct SeqSer<'a> {
    out: &'a mut String,
    first: bool,
    close: char,
}

impl SeqSer<'_> {
    fn comma(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
    }
}

impl ser::SerializeSeq for SeqSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.comma();
        value.serialize(Ser { out: self.out })
    }
    fn end(self) -> Result<(), Error> {
        self.out.push(self.close);
        Ok(())
    }
}
impl ser::SerializeTuple for SeqSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), Error> {
        ser::SerializeSeq::end(self)
    }
}
impl ser::SerializeTupleStruct for SeqSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), Error> {
        ser::SerializeSeq::end(self)
    }
}
impl ser::SerializeTupleVariant for SeqSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), Error> {
        ser::SerializeSeq::end(self)
    }
}
impl ser::SerializeMap for SeqSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Error> {
        self.comma();
        key.serialize(Ser { out: self.out })
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.out.push(':');
        value.serialize(Ser { out: self.out })
    }
    fn end(self) -> Result<(), Error> {
        self.out.push(self.close);
        Ok(())
    }
}
impl ser::SerializeStruct for SeqSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.comma();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        value.serialize(Ser { out: self.out })
    }
    fn end(self) -> Result<(), Error> {
        self.out.push(self.close);
        Ok(())
    }
}
impl ser::SerializeStructVariant for SeqSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        ser::SerializeStruct::serialize_field(self, key, value)
    }
    fn end(self) -> Result<(), Error> {
        ser::SerializeStruct::end(self)
    }
}

#[test]
fn full_population_serializes() {
    let pop = generate(2015);
    let json = to_json(&pop);
    assert!(json.starts_with('['));
    assert!(json.contains("\"trend_answer\""));
    assert_eq!(json.matches("\"id\":").count(), 174);
}

#[test]
fn respondent_default_is_empty() {
    let r = Respondent::default();
    assert!(r.trend_answer.is_none());
    assert!(r.bottlenecks.is_empty());
    let json = to_json(&r);
    assert!(json.contains("\"trend_answer\":null"), "{json}");
}

/// Raw-identifier field and variant names serialize under their bare
/// names, as upstream serde keys them.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Head {
    r#type: Kind,
}

#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
enum Kind {
    r#Match,
}

#[test]
fn raw_identifiers_round_trip_under_their_bare_names() {
    use serde::value::RawValue;
    let head = Head {
        r#type: Kind::r#Match,
    };
    assert_eq!(to_json(&head), r#"{"type":"Match"}"#);
    let wire = RawValue::Map(vec![(
        "type".to_string(),
        RawValue::Str("Match".to_string()),
    )]);
    assert_eq!(
        <Head as serde::Deserialize>::deserialize_value(&wire),
        Ok(head)
    );
}
