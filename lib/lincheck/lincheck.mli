(** Linearizability checking for concurrent maps (paper Section 4.2).

    The paper proves the cache-trie operations linearizable; this
    module checks the property empirically on bounded histories, for
    every map in the repository.  Worker domains run small operation
    scripts against a shared map while stamping each operation's
    invocation and response with a global atomic counter; a Wing-Gong
    style search then looks for a total order of the operations that
    (a) respects real-time order (op A before op B whenever A responded
    before B was invoked), (b) respects per-thread program order, and
    (c) is legal for the sequential map specification.

    Keys and values are small integers.  Timestamps only bound the
    real-time order (an operation's effect may occur anywhere between
    the two stamps), which makes the check sound: a history rejected
    here is genuinely non-linearizable. *)

type op =
  | Lookup of int
  | Insert of int * int  (** put, returns previous binding *)
  | Remove of int
  | Put_if_absent of int * int
  | Replace of int * int
  | Replace_if of int * int * int
      (** [Replace_if (k, expected, v)]: the CAS-style JDK
          [replace(k, old, new)]; the recorded result is [Some 1] on
          success and [Some 0] on failure. *)
  | Remove_if of int * int
      (** [Remove_if (k, expected)]: JDK [remove(k, v)], same result
          encoding as {!Replace_if}. *)

type event = {
  thread : int;
  op : op;
  result : int option;  (** value returned by the operation *)
  inv : int;  (** invocation timestamp *)
  res : int;  (** response timestamp *)
}

module type IMAP = Ct_util.Map_intf.CONCURRENT_MAP with type key = int

module Apply (M : IMAP) : sig
  val apply : int M.t -> op -> int option
  (** Run one operation against the map, returning the result
      {!record} would stamp on its event. *)
end

val record : (module IMAP) -> op list list -> event list
(** [record (module M) scripts] runs script [i] on domain [i] against
    one shared fresh map and returns all stamped events. *)

val check : event list -> bool
(** [check history] — true iff the history is linearizable with
    respect to the sequential map specification (bounded exhaustive
    search with memoization; intended for histories of ~25 ops). *)

val run_random :
  (module IMAP) ->
  seed:int ->
  threads:int ->
  ops_per_thread:int ->
  key_range:int ->
  bool
(** Generate random scripts, record a concurrent history, check it.
    Returns the verdict of {!check}. *)

val sequential_apply : (int * int) list -> op -> (int * int) list * int option
(** The sequential specification: apply [op] to a model association
    list, returning the new model and the expected result.  Exposed
    for the checker's own tests. *)
