//! The derive stand-in must write the JSON the published crates write for
//! every item shape and attribute this workspace uses.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Debug;

fn round_trip<T: Serialize + Deserialize + PartialEq + Debug>(value: &T, text: &str) {
    assert_eq!(serde_json::to_string(value).unwrap(), text);
    assert_eq!(&serde_json::from_str::<T>(text).unwrap(), value);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
enum Kind {
    Small,
    Large,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Id(pub u32);

#[derive(Debug, PartialEq, Default, Serialize, Deserialize)]
struct Record {
    /// Doc comments are attributes too and must be stepped over.
    pub id: u64,
    pub(crate) name: String,
    #[serde(default)]
    weight: f64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    note: Option<String>,
    maybe: Option<u16>,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    tags: Vec<String>,
    by_kind: BTreeMap<Kind, Vec<(u16, u32)>>,
    #[serde(default, skip_serializing)]
    hidden: u16,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    One(Id),
    Named { w: u32, h: Option<u32> },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Outcome {
    Ok,
    TimedOut,
}

#[derive(Debug, PartialEq, Default, Serialize, Deserialize)]
struct Empty {}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
enum Event {
    RunStart(Record),
    Nothing(Empty),
    Stop,
    Progress {
        done: u64,
        #[serde(default, skip_serializing_if = "Option::is_none")]
        eta_s: Option<f64>,
    },
}

fn record() -> Record {
    Record {
        id: 7,
        name: "a\"b".into(),
        weight: 0.5,
        note: None,
        maybe: None,
        tags: vec![],
        by_kind: BTreeMap::from([(Kind::Large, vec![(1, 2)])]),
        hidden: 0,
    }
}

const RECORD: &str =
    r#"{"id":7,"name":"a\"b","weight":0.5,"maybe":null,"by_kind":{"Large":[[1,2]]}}"#;

#[test]
fn structs() {
    round_trip(&record(), RECORD);
    round_trip(&Id(3), "3");
    round_trip(&Empty {}, "{}");
    let full =
        Record { note: Some("n".into()), maybe: Some(1), tags: vec!["t".into()], ..record() };
    round_trip(
        &full,
        r#"{"id":7,"name":"a\"b","weight":0.5,"note":"n","maybe":1,"tags":["t"],"by_kind":{"Large":[[1,2]]}}"#,
    );
}

#[test]
fn absent_members_take_defaults_and_unknown_ones_are_skipped() {
    let text = r#" { "extra" : [1, {"x": null}], "name":"n", "id":1, "by_kind":{}, "hidden": 9 } "#;
    let got: Record = serde_json::from_str(text).unwrap();
    assert_eq!(got, Record { id: 1, name: "n".into(), hidden: 9, ..Record::default() });
    let missing = serde_json::from_str::<Record>(r#"{"id":1,"by_kind":{}}"#).unwrap_err();
    assert!(missing.to_string().contains("missing field `name`"), "{missing}");
}

#[test]
fn externally_tagged_enums() {
    round_trip(&Shape::Unit, r#""Unit""#);
    round_trip(&Shape::One(Id(4)), r#"{"One":4}"#);
    round_trip(&Shape::Named { w: 1, h: None }, r#"{"Named":{"w":1,"h":null}}"#);
    round_trip(&Outcome::TimedOut, r#""timed_out""#);
    round_trip(&vec![Outcome::Ok], r#"["ok"]"#);
    assert!(serde_json::from_str::<Shape>(r#""Nope""#).is_err());
    assert!(serde_json::from_str::<Shape>(r#"{"One":4,"Named":{"w":1}}"#).is_err());
    assert!(serde_json::from_str::<Shape>(r#"{}"#).is_err());
}

#[test]
fn internally_tagged_enums() {
    round_trip(&Event::Stop, r#"{"event":"stop"}"#);
    round_trip(&Event::Nothing(Empty {}), r#"{"event":"nothing"}"#);
    round_trip(&Event::RunStart(record()), &format!(r#"{{"event":"run_start",{}"#, &RECORD[1..]));
    round_trip(&Event::Progress { done: 3, eta_s: None }, r#"{"event":"progress","done":3}"#);
    round_trip(
        &Event::Progress { done: 3, eta_s: Some(1.5) },
        r#"{"event":"progress","done":3,"eta_s":1.5}"#,
    );
    // The tag may come anywhere in the object.
    let late: Event = serde_json::from_str(r#"{"done":5,"event":"progress"}"#).unwrap();
    assert_eq!(late, Event::Progress { done: 5, eta_s: None });
    assert!(serde_json::from_str::<Event>(r#"{"done":5}"#).is_err());
    assert!(serde_json::from_str::<Event>(r#"{"event":"other"}"#).is_err());
}
