package rstorebench

import scala.collection.mutable

/** One reported figure. `label` says whether it was measured on this run
  * (`measured`) or comes from the repo's models: `CostModel` times and
  * `RecordModel` byte sizes (`model`).
  */
final case class Metric(value: Double, unit: String, label: String)

/** Metrics in report order. */
final class MetricSet {
  val entries: mutable.LinkedHashMap[String, Metric] = mutable.LinkedHashMap.empty

  def measured(name: String, value: Double, unit: String): Unit = put(name, Metric(value, unit, "measured"))
  def model(name: String, value: Double, unit: String): Unit = put(name, Metric(value, unit, "model"))

  private def put(name: String, m: Metric): Unit = {
    require(!m.value.isNaN && !m.value.isInfinite, s"metric $name is ${m.value}")
    require(!entries.contains(name), s"metric $name reported twice")
    entries(name) = m
  }

  def table: String = {
    val w = entries.keys.map(_.length).maxOption.getOrElse(0)
    entries.map { case (n, m) => f"  ${n.padTo(w, ' ')}  ${m.value}%16.6f  ${m.unit}%-9s ${m.label}" }.mkString("\n")
  }

  /** `{"name": {"value": v, "unit": u}, ...}` */
  def json(withLabels: Boolean): String =
    entries.map { case (n, m) =>
      val label = if (withLabels) s""", "label": "${m.label}"""" else ""
      s""""$n": {"value": ${Json.num(m.value)}, "unit": "${m.unit}"$label}"""
    }.mkString("{", ", ", "}")
}

object Json {
  def num(x: Double): String = if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  def str(s: String): String = "\"" + s.flatMap {
    case '"' => "\\\""; case '\\' => "\\\\"; case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
  } + "\""
  def obj(fields: Seq[(String, String)]): String = fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty)
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Nearest-rank percentile of an already sorted array. */
  def percentile(sorted: Array[Long], p: Double): Long = {
    require(sorted.nonEmpty)
    sorted(math.max(0, math.ceil(p * sorted.length).toInt - 1))
  }

  def ratio(num: Double, den: Double): Double = if (den == 0) 0.0 else num / den
}
