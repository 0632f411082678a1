//! The master role of the collaborative multiplexer.
//!
//! §3.3: "Receive-requests are only sent to a 'master' visualization, so
//! that only that master is able to actively steer the application. The
//! master-role can be moved between the \[participants\] allowing for a
//! coordinated cooperative steering." The paper's `vbroker` application
//! held that rule; its job "has been moved into the VISIT proxy-server",
//! and here [`MasterToken`] holds it once for everyone who needs it.

/// The master role of §3.3, written once for the UNICORE proxy-server and
/// the core session: who holds the steering token.
/// The derived `Default` (no holder) is why the id types derive `Default`.
#[derive(Default)]
pub struct MasterToken<Id: Copy + Ord>(Option<Id>);

impl<Id: Copy + Ord> MasterToken<Id> {
    /// The participant holding the token, if anyone does.
    pub fn holder(&self) -> Option<Id> {
        self.0
    }

    /// `id` arrived: the first arrival takes the token.
    pub fn arrive(&mut self, id: Id) {
        self.0.get_or_insert(id);
    }

    /// `id` departed. If it held the token, the lowest `remaining` id (the
    /// longest-present one) takes it; returns that heir.
    pub fn depart(&mut self, id: Id, remaining: impl IntoIterator<Item = Id>) -> Option<Id> {
        if self.0 != Some(id) {
            return None;
        }
        self.0 = remaining.into_iter().min();
        self.0
    }

    /// Only the holder may pass the token, and only to another
    /// participant that is `present`.
    pub fn pass(&mut self, from: Id, to: Id, present: bool) -> bool {
        let moved = self.0 == Some(from) && to != from && present;
        if moved {
            self.0 = Some(to);
        }
        moved
    }
}
