(** Newline-delimited framing with a size ceiling.

    The wire format is JSON-lines: one request or response per line,
    terminated by ['\n'] (see docs/PROTOCOL.md).  A {!reader} accumulates
    arbitrary byte chunks and yields complete frames; a line that exceeds
    [max_frame] bytes is discarded up to its terminating newline and
    reported as {!Oversized} instead of buffering without bound — the
    daemon answers it with a structured [oversized] error and the
    connection keeps working. *)

type event =
  | Frame of string  (** one complete line, newline stripped *)
  | Oversized of int  (** an over-limit line was dropped; payload is the byte count seen *)

type reader

(** [create ~max_frame] is a fresh reader.  [max_frame] bounds the frame
    length in bytes, excluding the newline. *)
val create : max_frame:int -> reader

(** [feed r bytes len] consumes [len] bytes from the front of [bytes] and
    returns the completed events, in input order.
    @raise Invalid_argument if [len] is negative or exceeds [Bytes.length bytes]. *)
val feed : reader -> bytes -> int -> event list

(** Bytes currently buffered for an incomplete frame (diagnostics). *)
val pending : reader -> int

(** The reader's reusable read chunk (64 KiB): one buffer per connection
    instead of one per [read(2)].  Callers read into it and pass it
    straight to {!feed}; the reader never retains a reference past the
    [feed] call, so reuse is safe. *)
val read_chunk : reader -> bytes

(** {2 Write scratch}

    A per-connection scratch buffer for the flush path: copying the
    pending-output [Buffer] into it avoids allocating a fresh string on
    every flush.  The scratch grows on demand up to [retain_max] bytes
    (default 64 KiB); larger payloads fall back to a one-shot temporary
    that is not retained, so a single oversized response cannot pin
    memory for the connection's lifetime. *)

type writer

val writer : ?retain_max:int -> unit -> writer

(** [writer_bytes w buf] returns a [bytes] whose first [Buffer.length buf]
    bytes are [buf]'s contents.  The result aliases the writer's scratch
    (valid until the next call) unless the payload exceeded [retain_max]. *)
val writer_bytes : writer -> Buffer.t -> bytes

(** [write_all fd s] writes the whole string, retrying on short writes and
    [EINTR].  Raises [Unix.Unix_error] on real failures (e.g. [EPIPE]). *)
val write_all : Unix.file_descr -> string -> unit

(** [write_frame fd s] is [write_all fd (s ^ "\n")]. *)
val write_frame : Unix.file_descr -> string -> unit
