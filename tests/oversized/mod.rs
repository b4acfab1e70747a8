//! Graphs whose controllers are wider than logic synthesis can
//! represent: a controller's state bits plus inputs must fit in
//! `tauhls_logic::MAX_VARS` (64) cover variables.

/// 139 operations: inputs `a0`–`a69`, `m<i> = a<i> * a<(i+1) mod 70>`
/// and a balanced `add` tree over the 70 products. At 8 multipliers and
/// 1 adder the adder's controller needs 77 variables, in binary and in
/// Gray encoding.
pub fn wide_dfg() -> String {
    let mut text = String::from("dfg wide\n");
    for i in 0..70 {
        text += &format!("input a{i}\n");
    }
    let mut level = Vec::new();
    for i in 0..70 {
        text += &format!("op m{i} = mul a{i} a{}\n", (i + 1) % 70);
        level.push(format!("m{i}"));
    }
    let mut sums = 0;
    while level.len() > 1 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            if let [a, b] = pair {
                text += &format!("op s{sums} = add {a} {b}\n");
                next.push(format!("s{sums}"));
                sums += 1;
            } else {
                next.extend_from_slice(pair);
            }
        }
        level = next;
    }
    text + &format!("output y {}\n", level[0])
}

/// A chain of 100 `add`s: its one adder's controller has 100 states,
/// too many for a one-hot encoding (binary needs 7 state bits).
pub fn add_chain_dfg() -> String {
    let mut text = String::from("dfg chain\ninput x\ninput y\nop c0 = add x y\n");
    for i in 1..100 {
        text += &format!("op c{i} = add c{} y\n", i - 1);
    }
    text + "output o c99\n"
}
