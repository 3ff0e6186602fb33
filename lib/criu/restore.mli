(** Restore: rebuild a runnable process from an image set.

    The target binary must match the image's architecture and
    application — restoring an unrewritten x86-64 image on an aarch64
    node is rejected with [Error (Dapper_error.Restore_failed _)], which
    is exactly why Dapper's rewriter exists.

    [page_source] serves lazily-migrated pages on first access (the page
    server client); omit it for a vanilla (fully-copied) restore. The
    image's pages and the served ones are mapped without a copy
    ({!Dapper_machine.Memory.map_shared}): the restored process copies a
    page when it first writes it, so the image stays as it was. Restore
    itself clears the transformation flag, so a lazy image whose flag
    page [page_source] cannot serve is a [Restore_failed] too. *)

open Dapper_util
open Dapper_binary
open Dapper_machine

val restore :
  ?page_source:(int -> string option) ->
  Images.image_set ->
  Binary.t ->
  (Process.t, Dapper_error.t) result
