//! CLI surface tests for `dfpc-score --miner`: valid names are accepted
//! (and exported as `DFP_MINER`), invalid names fail fast with a message
//! listing every valid backend and alias.

use std::process::Command;

fn dfpc_score() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dfpc-score"))
}

#[test]
fn invalid_miner_name_fails_with_the_valid_list() {
    let out = dfpc_score()
        .args(["--miner", "quantum", "--input", "whatever.csv"])
        .output()
        .expect("dfpc-score runs");
    assert!(!out.status.success(), "invalid miner must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown miner 'quantum'"),
        "stderr names the bad value: {stderr}"
    );
    for name in ["closed", "all", "eclat", "fpgrowth", "apriori", "nodeset"] {
        assert!(
            stderr.contains(name),
            "stderr lists valid miner '{name}': {stderr}"
        );
    }
}

#[test]
fn every_valid_miner_name_is_accepted() {
    // `all` plus the retired miners' names, which are its aliases.
    for name in ["closed", "all", "eclat", "fpgrowth", "apriori", "nodeset"] {
        let out = dfpc_score()
            .args(["--miner", name, "--input", "no-such-rows.csv"])
            .output()
            .expect("dfpc-score runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        // The run still fails (the input file is missing), but it must get
        // *past* flag validation: no miner complaint in the message.
        assert!(
            !stderr.contains("unknown miner"),
            "'{name}' must parse: {stderr}"
        );
        assert!(
            stderr.contains("cannot read"),
            "failure is the missing input, not the flag: {stderr}"
        );
    }
}

#[test]
fn missing_miner_value_fails() {
    let out = dfpc_score()
        .args(["--input", "rows.csv", "--miner"])
        .output()
        .expect("dfpc-score runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown miner ''"), "stderr: {stderr}");
}
