//! §4.3's re-match through the workbench shell: a `match` that fails or
//! is interrupted changes nothing. The engine learns from fresh
//! decisions only inside a re-match that completes, so a session whose
//! history holds failed matches reads exactly like one that ran only
//! the commands that succeeded — the property journal recovery relies
//! on, since only successful mutations are journaled.

use iwb_core::shell::Shell;
use iwb_harmony::{Budget, CancelToken, Deadline};

const SOURCE: &str = r#"entity CUSTOMER "A customer of the shop." {
  cust_id : integer key "Unique customer identifier."
  cust_name : text "Full name of the customer."
  city : text "City the customer lives in."
}
entity ORDER "A purchase order." {
  order_no : integer key "Order number."
  total : decimal "Total amount of the order."
}"#;

const TARGET: &str = r#"entity client "A client of the business." {
  client_id : integer key "Unique identifier of the client."
  client_name : text "Name of the client."
  town : text "Town of residence."
}
entity purchase "A purchase by a client." {
  number : integer key "Purchase number."
  amount : decimal "Amount of the purchase."
}"#;

const ACCEPT: &str = "accept a b a/CUSTOMER/cust_name b/client/client_name";
const REJECT: &str = "reject a b a/CUSTOMER/city b/purchase/amount";

/// A shell with both schemas loaded and matched once.
fn matched() -> Shell {
    let mut shell = Shell::new();
    shell.execute("load er a", Some(SOURCE)).expect("load a");
    shell.execute("load er b", Some(TARGET)).expect("load b");
    shell.execute("match a b", None).expect("first match");
    shell
}

/// What the session reads: the engine's learned weights and the
/// blackboard's export.
fn reads(shell: &mut Shell) -> (String, String) {
    (
        shell.execute("weights", None).expect("weights"),
        shell.execute("export", None).expect("export"),
    )
}

/// `match`, `accept`, then `failing` (which must fail), `reject` and
/// `match`: the session must read as one that skipped `failing`.
fn assert_failed_match_changes_nothing(failing: impl FnOnce(&mut Shell)) {
    let mut live = matched();
    live.execute(ACCEPT, None).expect("accept");
    failing(&mut live);
    live.execute(REJECT, None).expect("reject");
    live.execute("match a b", None).expect("re-match");

    let mut clean = matched();
    clean.execute(ACCEPT, None).expect("accept");
    clean.execute(REJECT, None).expect("reject");
    clean.execute("match a b", None).expect("re-match");

    let (live_weights, live_export) = reads(&mut live);
    let (clean_weights, clean_export) = reads(&mut clean);
    assert!(
        clean_weights.starts_with("weights: epoch=1\n"),
        "{clean_weights}"
    );
    assert_eq!(live_weights, clean_weights);
    assert!(live_export == clean_export, "the exports differ");
}

#[test]
fn a_subtree_match_that_fails_learns_nothing() {
    assert_failed_match_changes_nothing(|shell| {
        let err = shell
            .execute("match a b subtree a/NOPE", None)
            .expect_err("a missing sub-tree must fail");
        assert!(err.to_string().contains("not found"), "{err}");
    });
}

#[test]
fn a_cancelled_match_learns_nothing() {
    assert_failed_match_changes_nothing(|shell| {
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::new(token, Deadline::none());
        shell
            .execute_with_budget("match a b", None, &budget)
            .expect_err("a cancelled match must abort");
    });
}

#[test]
fn a_match_after_reimporting_a_smaller_schema_answers_ok() {
    // The decided cell's row lies past the end of the re-imported
    // source: the re-match must neither panic nor fail.
    let mut shell = matched();
    shell
        .execute("accept a b a/ORDER/total b/purchase/amount", None)
        .expect("accept");
    shell
        .execute(
            "load er a",
            Some("entity CUSTOMER \"A customer.\" { cust_name : text \"Name.\" }"),
        )
        .expect("re-import a smaller source");
    let out = shell.execute("match a b", None).expect("re-match");
    assert!(out.contains("cells updated"), "{out}");
    shell.execute("match a b", None).expect("a second re-match");
}
