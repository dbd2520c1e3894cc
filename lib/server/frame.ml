type event =
  | Frame of string
  | Oversized of int

let chunk_size = 65536

type reader = {
  max_frame : int;
  buf : Buffer.t;
  chunk : Bytes.t;  (* reusable read buffer: one per connection, not per read *)
  mutable discarding : bool;  (* current line already blew the limit *)
  mutable discarded : int;  (* bytes dropped of the current oversized line *)
}

let create ~max_frame =
  {
    max_frame;
    buf = Buffer.create 512;
    chunk = Bytes.create chunk_size;
    discarding = false;
    discarded = 0;
  }

let read_chunk r = r.chunk
let pending r = Buffer.length r.buf

(* Index of the first ['\n'] in [bytes] from [i] below [len], or [len].
   [Bytes.index_from] would read on past [len] into the stale tail of the
   reusable chunk. *)
let rec newline bytes i len =
  if i >= len || Bytes.unsafe_get bytes i = '\n' then i else newline bytes (i + 1) len

(* Whole runs between newlines are copied at once.  A line that fits in
   one chunk with nothing buffered becomes its frame with one copy; an
   over-limit line is counted, never buffered, so the buffer holds at
   most [max_frame] bytes. *)
let feed r bytes len =
  if len < 0 || len > Bytes.length bytes then invalid_arg "Frame.feed";
  let events = ref [] in
  let pos = ref 0 in
  while !pos < len do
    let stop = newline bytes !pos len in
    let run = stop - !pos in
    let ended = stop < len in
    if r.discarding then r.discarded <- r.discarded + run
    else if Buffer.length r.buf + run > r.max_frame then begin
      r.discarding <- true;
      r.discarded <- Buffer.length r.buf + run;
      Buffer.clear r.buf
    end
    else if ended && Buffer.length r.buf = 0 then events := Frame (Bytes.sub_string bytes !pos run) :: !events
    else begin
      Buffer.add_subbytes r.buf bytes !pos run;
      if ended then begin
        events := Frame (Buffer.contents r.buf) :: !events;
        Buffer.clear r.buf
      end
    end;
    if ended && r.discarding then begin
      events := Oversized r.discarded :: !events;
      r.discarding <- false;
      r.discarded <- 0
    end;
    pos := stop + 1
  done;
  List.rev !events

(* Reusable write scratch.  Flush paths copy a [Buffer] here before
   [Unix.write] instead of materializing a fresh string per flush.  The
   scratch grows geometrically up to [retain_max]; an oversized payload is
   served from a one-shot temporary so one huge response cannot pin a
   connection-lifetime buffer. *)
type writer = { mutable scratch : Bytes.t; retain_max : int }

let writer ?(retain_max = chunk_size) () =
  { scratch = Bytes.create 4096; retain_max = max 4096 retain_max }

let writer_bytes w buf =
  let n = Buffer.length buf in
  if n <= Bytes.length w.scratch then begin
    Buffer.blit buf 0 w.scratch 0 n;
    w.scratch
  end
  else if n <= w.retain_max then begin
    let cap = ref (Bytes.length w.scratch) in
    while !cap < n do
      cap := !cap * 2
    done;
    w.scratch <- Bytes.create (min !cap w.retain_max);
    Buffer.blit buf 0 w.scratch 0 n;
    w.scratch
  end
  else (* oversized fallback: not retained *) Buffer.to_bytes buf

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    match Unix.write fd b !written (n - !written) with
    | k -> written := !written + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let write_frame fd s = write_all fd (s ^ "\n")
