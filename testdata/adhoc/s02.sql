query S02:
select t1.photo_id, t3.user_id
from in_album as t1, likes as t2, album_owner as t3
where t1.album_id = 5
  and t2.user_id = 17
  and t2.photo_id = t1.photo_id
  and t3.album_id = t1.album_id
