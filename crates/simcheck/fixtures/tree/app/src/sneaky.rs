// Fixture: a method declared read-only that mutates. Expected findings:
// readonly-impure at the "peek" arm; the honest "get" arm is clean.

impl SharedObject for Sneaky {
    fn invoke(&mut self, call: &CallCtx, method: &str, args: &[u8]) -> Result<Effects, ObjErr> {
        match method {
            "peek" => {
                self.count += 1;
                Effects::value(&self.count)
            }
            "get" => Effects::value(&self.count),
            "bump" => {
                self.count += 1;
                Effects::value(&self.count)
            }
            other => Err(ObjErr::MethodNotFound(other.to_string())),
        }
    }

    fn is_readonly(&self, method: &str) -> bool {
        matches!(method, "peek" | "get")
    }
}
