// Seeded negative for `dynlint --fixture clock-under-lock`. NOT compiled:
// this file exists only to be linted. It is the engine as it was before
// processes owned their clocks — every timestamp took the engine mutex.

impl Proc {
    pub fn now(&self) -> SimTime {
        self.eng.inner.lock().procs[self.pid].clock
    }

    pub fn advance(&self, dt: SimTime) {
        self.clock.set(self.clock.get() + dt);
    }
}
