// Fixture: every ingress rule fires inside the region, none outside.
fn outside(x: Option<u32>) -> u32 {
    x.unwrap()
}

// lint: ingress
fn handle(xs: &[u32], x: Option<u32>, i: usize) -> u32 {
    let a = x.unwrap();
    let b = x.expect("present");
    if a + b == 0 {
        panic!("unreachable input");
    }
    xs[i]
}

// A decoder a macro generates is an ingress path like any other.
macro_rules! decode_at {
    ($xs:expr, $x:expr, $i:expr) => {{
        let first = $x.unwrap();
        first + $xs[$i]
    }};
}
// lint: end

fn after(x: Option<u32>) -> u32 {
    x.unwrap()
}
