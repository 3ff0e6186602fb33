(** Circuit breakers over the simulated clock.

    One breaker guards one failure domain — a transport, a rack — and
    runs the classic three-state machine:

    - {e closed}: serving; [b_failure_threshold] {e consecutive}
      failures trip it open (any success resets the streak);
    - {e open}: refusing ({!allow} is false) until the cooldown
      [b_open_ms] elapses, after which the first {!allow} is the probe
      that moves it to half-open;
    - {e half-open}: serving probes; [b_probe_successes] consecutive
      wins re-close it, any failure re-opens it for another cooldown.

    Every transition happens on the caller-supplied simulated time and
    nothing is random, so a breaker's full trip/probe history is a pure
    function of the event sequence fed to it. *)

type state = Closed | Open | Half_open

type cfg = {
  b_failure_threshold : int;  (** consecutive failures that trip *)
  b_open_ms : float;          (** cooldown before the half-open probe *)
  b_probe_successes : int;    (** half-open wins needed to re-close *)
}

type t

(** Raises [Invalid_argument] on a non-positive threshold or probe
    count, or a negative cooldown. *)
val create : ?cfg:cfg -> unit -> t

val state : t -> state

(** Times tripped open (including half-open probes that failed). *)
val trips : t -> int

(** May this unit serve at [now_ms]? False only while open and still
    cooling down; the first [allow] past the cooldown is the probe
    (the breaker moves to half-open and serves it). *)
val allow : t -> now_ms:float -> bool

val record_success : t -> now_ms:float -> unit
val record_failure : t -> now_ms:float -> unit
