//! End-to-end tests through the SQL front end: `SELECT PROVENANCE` queries
//! with nested subqueries, executed against the in-memory engine.

use perm::prelude::*;
use perm::SessionConfig;

/// Provenance of a SQL query through the Session API with an explicit
/// strategy.
fn provenance_of_sql(
    db: &Database,
    sql: &str,
    strategy: Strategy,
) -> Result<Relation, perm::PermError> {
    let session = Session::with_config(
        db,
        SessionConfig {
            strategy,
            ..SessionConfig::default()
        },
    );
    let prepared = session.prepare_provenance(sql)?;
    session.execute(&prepared, &[])
}

fn run(db: &Database, sql: &str) -> Result<Relation, perm::PermError> {
    Session::new(db).run(sql)
}

fn shop_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "items",
        Relation::from_rows(
            Schema::from_names(&["id", "name", "price"]).with_qualifier("items"),
            vec![
                vec![Value::Int(1), Value::str("keyboard"), Value::Int(30)],
                vec![Value::Int(2), Value::str("monitor"), Value::Int(220)],
                vec![Value::Int(3), Value::str("cable"), Value::Int(5)],
                vec![Value::Int(4), Value::str("laptop"), Value::Int(900)],
            ],
        ),
    )
    .unwrap();
    db.create_table(
        "orders",
        Relation::from_rows(
            Schema::from_names(&["order_id", "item_id", "qty"]).with_qualifier("orders"),
            vec![
                vec![Value::Int(100), Value::Int(1), Value::Int(2)],
                vec![Value::Int(101), Value::Int(2), Value::Int(1)],
                vec![Value::Int(102), Value::Int(2), Value::Int(3)],
                vec![Value::Int(103), Value::Int(3), Value::Int(10)],
            ],
        ),
    )
    .unwrap();
    db
}

#[test]
fn provenance_keyword_triggers_the_rewrite() {
    let db = shop_db();
    let plain = run(&db, "SELECT name FROM items WHERE price > 100").unwrap();
    assert_eq!(plain.schema().names(), vec!["name"]);
    let prov = run(&db, "SELECT PROVENANCE name FROM items WHERE price > 100").unwrap();
    assert_eq!(
        prov.schema().names(),
        vec![
            "name",
            "prov_items_id",
            "prov_items_name",
            "prov_items_price"
        ]
    );
    assert_eq!(plain.len(), prov.len());
}

#[test]
fn provenance_of_in_subquery_links_items_to_their_orders() {
    let db = shop_db();
    let sql = "SELECT PROVENANCE name FROM items \
               WHERE id IN (SELECT item_id FROM orders WHERE qty > 1)";
    let result = run(&db, sql).unwrap();
    // keyboard (order 100, qty 2), monitor (order 102, qty 3), cable (order
    // 103, qty 10) qualify; the monitor's qty-1 order must not appear.
    assert_eq!(result.len(), 3);
    let schema = result.schema();
    let prov_order = schema.resolve(None, "prov_orders_order_id").unwrap();
    let orders: Vec<i64> = result
        .tuples()
        .iter()
        .map(|t| t.get(prov_order).as_i64().unwrap())
        .collect();
    assert!(orders.contains(&100));
    assert!(orders.contains(&102));
    assert!(orders.contains(&103));
    assert!(!orders.contains(&101), "the qty-1 order did not contribute");
}

#[test]
fn not_exists_provenance_pads_missing_orders_with_null() {
    let db = shop_db();
    let sql = "SELECT PROVENANCE name FROM items \
               WHERE NOT EXISTS (SELECT * FROM orders WHERE orders.item_id = items.id)";
    let result = run(&db, sql).unwrap();
    // Only the laptop has no orders.
    assert_eq!(result.len(), 1);
    let schema = result.schema();
    let name = schema.resolve(None, "name").unwrap();
    let prov_order = schema.resolve(None, "prov_orders_order_id").unwrap();
    assert_eq!(result.tuples()[0].get(name), &Value::str("laptop"));
    assert!(result.tuples()[0].get(prov_order).is_null());
}

#[test]
fn strategies_agree_through_the_sql_interface() {
    let db = shop_db();
    let sql = "SELECT name FROM items WHERE id IN (SELECT item_id FROM orders WHERE qty > 1)";
    let reference = provenance_of_sql(&db, sql, Strategy::Gen).unwrap();
    for strategy in [
        Strategy::Left,
        Strategy::Move,
        Strategy::Unn,
        Strategy::Auto,
    ] {
        let result = provenance_of_sql(&db, sql, strategy).unwrap();
        assert!(
            result.set_eq(&reference),
            "{strategy} disagrees with Gen:\n{result}\nvs\n{reference}"
        );
    }
}

#[test]
fn aggregation_provenance_attributes_the_whole_group() {
    let db = shop_db();
    let sql = "SELECT PROVENANCE item_id, sum(qty) AS total \
               FROM orders GROUP BY item_id HAVING sum(qty) > 2";
    let result = run(&db, sql).unwrap();
    // Groups item 2 (qty 1+3=4) and item 3 (qty 10): item 2's group has two
    // contributing orders, item 3's group one — three provenance rows.
    assert_eq!(result.len(), 3);
    let schema = result.schema();
    let item = schema.resolve(None, "item_id").unwrap();
    let total = schema.resolve(None, "total").unwrap();
    for row in result.tuples() {
        match row.get(item).as_i64().unwrap() {
            2 => assert_eq!(row.get(total), &Value::Int(4)),
            3 => assert_eq!(row.get(total), &Value::Int(10)),
            other => panic!("unexpected group {other}"),
        }
    }
}

#[test]
fn scalar_subquery_provenance() {
    let db = shop_db();
    let sql = "SELECT PROVENANCE name FROM items \
               WHERE price = (SELECT max(price) FROM items)";
    let result = run(&db, sql).unwrap();
    assert_eq!(result.len(), 4, "all items feed the max() sublink");
    let schema = result.schema();
    let name = schema.resolve(None, "name").unwrap();
    for row in result.tuples() {
        assert_eq!(row.get(name), &Value::str("laptop"));
    }
}

#[test]
fn provenance_result_is_a_relation_usable_as_input() {
    // The single-relation representation can be registered as a table and
    // queried again — the property Section 3.1 emphasises.
    let db = shop_db();
    let prov = provenance_of_sql(
        &db,
        "SELECT name FROM items WHERE id IN (SELECT item_id FROM orders)",
        Strategy::Auto,
    )
    .unwrap();
    let mut db2 = shop_db();
    db2.create_table("item_provenance", prov).unwrap();
    let roundtrip = run(
        &db2,
        "SELECT DISTINCT prov_orders_order_id FROM item_provenance ORDER BY prov_orders_order_id",
    )
    .unwrap();
    assert_eq!(roundtrip.len(), 4);
}

#[test]
fn errors_are_reported_not_panicked() {
    let db = shop_db();
    assert!(run(&db, "SELECT nothing FROM missing_table").is_err());
    assert!(run(&db, "THIS IS NOT SQL").is_err());
    assert!(provenance_of_sql(&db, "SELECT * FROM items LIMIT abc", Strategy::Gen).is_err());
}
