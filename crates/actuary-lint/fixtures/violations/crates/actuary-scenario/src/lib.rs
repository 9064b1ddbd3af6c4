// no-panic violations: the scenario crate is a panic-free path.
pub fn parse(input: &str) -> f64 {
    let first = input.split(',').next().unwrap(); // no-panic violation
    let value: f64 = first.parse().expect("a number"); // no-panic violation
    if value.is_nan() {
        panic!("nan"); // no-panic violation
    }
    value
}

// unit-suffix violations: scenario keys with no unit suffix, read as a float or untyped.
pub fn schema_key() -> &'static str {
    let mut view = View;
    view.opt::<f64>("cluster");
    view.req("bare");
    view.opt("area_mm2"); // fine: the key names its unit
    view.req::<&str>("name") // fine: a bare key read as a non-float type
}

struct View;
impl View {
    fn opt<T>(&mut self, key: &'static str) -> &'static str {
        key
    }

    fn req<T>(&mut self, key: &'static str) -> &'static str {
        key
    }
}

// These are fine: unwrap_or is total, and expect_line_end is not expect.
pub fn total(input: &str) -> usize {
    let n = input.parse().unwrap_or(0);
    expect_line_end();
    n
}

fn expect_line_end() {}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let v: f64 = "1.5".parse().unwrap(); // exempt: test code
        assert!(v > 0.0);
    }

    #[cfg(test)]
    mod nested {
        #[test]
        fn nested_modules_stay_exempt() {
            "2.5".parse::<f64>().unwrap(); // exempt: nested test module
        }
    }
}
