//! Property tests on the job server's submission parser: whatever a
//! client sends, `JobRequest::from_json` returns a request or a message,
//! never a panic, and every request it accepts is in range and
//! round-trips through `to_json`.

use hifi_serve::{JobRequest, MAX_PRIORITY};
use proptest::prelude::*;

fn parses_cleanly(body: &str) {
    if let Ok(request) = JobRequest::from_json(body) {
        assert!(request.priority <= MAX_PRIORITY, "{body:?}");
        assert_eq!(JobRequest::from_json(&request.to_json()), Ok(request));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, lossily decoded as the server decodes a body.
    #[test]
    fn arbitrary_bodies_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        parses_cleanly(&String::from_utf8_lossy(&bytes));
    }

    /// Strings over JSON's punctuation, digits and keyword letters.
    #[test]
    fn json_shaped_bodies_never_panic(body in "[{}\\[\\]\":,.0-9eE+ truenlfsaip_d-]{0,48}") {
        parses_cleanly(&body);
    }

    /// Objects with the real field names (some missing or repeated) and
    /// odd values: huge, negative, fractional, quoted, surrogates, cut short.
    #[test]
    fn submission_objects_never_panic(
        fields in prop::collection::vec((
            prop::sample::select(vec!["spec_seed", "priority", "pristine", "x"]),
            prop::sample::select(
                r#"0|9|10|-1|256|18446744073709551615|18446744073709551616|-9223372036854775808|1e3|1.5|"42"|"-1"|""|true|null|[]|{}|[1,|{"a":|"é"|"\ud800"||""#
                    .split('|')
                    .collect(),
            ),
        ), 0..5),
    ) {
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        parses_cleanly(&format!("{{{}}}", body.join(",")));
    }
}
