package repro.exp

/** Plain-text table rendering for bench output and jobs. */
object TableFmt {

  /** Render rows under headers with right-aligned columns. */
  def render(title: String, headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(r => if (i < r.length) r(i).length else 0).max)
    def line(r: Seq[String]): String =
      r.zipWithIndex.map { case (c, i) => c.reverse.padTo(widths(i), ' ').reverse }.mkString("  ")
    val sep = widths.map("-" * _).mkString("  ")
    (s"== $title ==" +: line(headers) +: sep +: rows.map(line)).mkString("\n")
  }

  def mb(bytes: Long): String = f"${bytes / 1048576.0}%.2f"
  def kb(bytes: Long): String = f"${bytes / 1024.0}%.1f"
  def secs(s: Double): String = f"$s%.2f"
}
